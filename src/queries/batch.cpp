#include "queries/batch.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"

namespace harmonia::queries {

namespace {

/// The keys strictly between neighbouring tree keys, the inserts' pool,
/// counted up to `enough`.
std::uint64_t novel_keys_between(const std::vector<std::uint64_t>& tree_keys,
                                 std::uint64_t enough) {
  std::uint64_t count = 0;
  for (std::size_t i = 1; i < tree_keys.size() && count < enough; ++i) {
    const std::uint64_t gap = tree_keys[i] - tree_keys[i - 1];
    if (gap >= 2) count += std::min(gap - 1, enough - count);
  }
  return count;
}

}  // namespace

std::vector<UpdateOp> make_update_batch(const std::vector<std::uint64_t>& tree_keys,
                                        const BatchSpec& spec) {
  HARMONIA_CHECK(!tree_keys.empty());
  HARMONIA_CHECK(spec.insert_fraction >= 0.0 && spec.delete_fraction >= 0.0);
  HARMONIA_CHECK(spec.insert_fraction + spec.delete_fraction <= 1.0);

  Xoshiro256 rng(spec.seed);
  const auto n_insert = static_cast<std::uint64_t>(
      static_cast<double>(spec.size) * spec.insert_fraction);
  const auto n_delete = static_cast<std::uint64_t>(
      static_cast<double>(spec.size) * spec.delete_fraction);
  const std::uint64_t n_update = spec.size - n_insert - n_delete;
  // Deletes and inserts are drawn until enough distinct ones are found:
  // refuse a batch that needs more than exist, rather than spin.
  HARMONIA_CHECK_MSG(n_delete <= tree_keys.size(),
                     "a batch of " << n_delete << " distinct deletes needs as many keys, but "
                                   << "the tree has " << tree_keys.size());
  if (n_insert > 0) {
    const std::uint64_t novel = novel_keys_between(tree_keys, n_insert);
    HARMONIA_CHECK_MSG(novel >= n_insert,
                       "a batch of " << n_insert << " distinct inserts needs as many novel "
                                     << "keys between tree keys, but only " << novel
                                     << " exist among " << tree_keys.size() << " keys");
  }

  std::vector<UpdateOp> ops;
  ops.reserve(spec.size);

  // Updates target distinct keys so a batch's final state is independent
  // of the order worker threads apply it in. When the batch is larger
  // than half the key set, sampling without replacement would degenerate,
  // so repetition is allowed (callers comparing against a sequential
  // oracle should keep batches below that).
  if (n_update <= tree_keys.size() / 2) {
    std::unordered_set<std::uint64_t> used_updates;
    used_updates.reserve(n_update * 2);
    while (used_updates.size() < n_update) {
      const std::uint64_t key = tree_keys[rng.next_below(tree_keys.size())];
      if (used_updates.insert(key).second) ops.push_back({OpKind::kUpdate, key, rng.next()});
    }
  } else {
    for (std::uint64_t i = 0; i < n_update; ++i) {
      const std::uint64_t key = tree_keys[rng.next_below(tree_keys.size())];
      ops.push_back({OpKind::kUpdate, key, rng.next()});
    }
  }

  // Inserts pick distinct gap midpoints so they are guaranteed novel keys.
  std::unordered_set<std::uint64_t> used;
  used.reserve(n_insert * 2);
  while (used.size() < n_insert) {
    const std::uint64_t i = rng.next_below(tree_keys.size() - 1);
    const std::uint64_t lo = tree_keys[i];
    const std::uint64_t hi = tree_keys[i + 1];
    if (hi - lo < 2) continue;
    const std::uint64_t key = lo + 1 + rng.next_below(hi - lo - 1);
    if (used.insert(key).second) ops.push_back({OpKind::kInsert, key, rng.next()});
  }

  std::unordered_set<std::uint64_t> deleted;
  deleted.reserve(n_delete * 2);
  while (deleted.size() < n_delete) {
    const std::uint64_t key = tree_keys[rng.next_below(tree_keys.size())];
    if (deleted.insert(key).second) ops.push_back({OpKind::kDelete, key, 0});
  }

  // Shuffle so op kinds interleave the way a real batch would.
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.next_below(i)]);
  }
  return ops;
}

}  // namespace harmonia::queries
