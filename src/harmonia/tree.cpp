#include "harmonia/tree.hpp"

#include <algorithm>
#include <atomic>
#include <istream>
#include <ostream>

#include "common/expect.hpp"
#include "common/xxhash64.hpp"

namespace harmonia {

namespace {

/// Number of separators <= key among the fanout-1 slots of a node record.
/// Pad slots hold kPadKey, which compares greater than every valid key, so
/// they never count — no per-node key count is needed during traversal,
/// exactly as in the device kernels.
unsigned separators_leq(std::span<const Key> slots, Key key) {
  const auto it = std::upper_bound(slots.begin(), slots.end(), key);
  return static_cast<unsigned>(it - slots.begin());
}

}  // namespace

std::uint32_t HarmoniaTree::level_start(unsigned level) const {
  HARMONIA_CHECK(level < level_start_.size());
  return level_start_[level];
}

std::span<const Key> HarmoniaTree::node_keys(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return std::span<const Key>(key_region_).subspan(
      static_cast<std::size_t>(node) * keys_per_node(), keys_per_node());
}

unsigned HarmoniaTree::node_key_count(std::uint32_t node) const {
  const auto keys = node_keys(node);
  unsigned count = 0;
  while (count < keys.size() && keys[count] != kPadKey) ++count;
  return count;
}

std::uint32_t HarmoniaTree::child_count(std::uint32_t node) const {
  HARMONIA_CHECK(node < num_nodes_);
  return prefix_sum_[node + 1] - prefix_sum_[node];
}

std::uint64_t HarmoniaTree::value_slot(std::uint32_t node, unsigned slot) const {
  HARMONIA_CHECK(is_leaf(node));
  HARMONIA_CHECK(slot < keys_per_node());
  return static_cast<std::uint64_t>(node - first_leaf_) * keys_per_node() + slot;
}

std::uint32_t TreeView::find_leaf(Key key) const {
  HARMONIA_CHECK(num_nodes > 0);
  HARMONIA_CHECK_MSG(key != kPadKey, "kPadKey is reserved");
  std::uint32_t node = 0;
  for (unsigned level = 0; level + 1 < height; ++level) {
    const unsigned i =
        separators_leq(keys.subspan(std::size_t{node} * keys_per_node, keys_per_node), key);
    node = prefix_sum[node] + i;
  }
  return node;
}

std::optional<Value> TreeView::search(Key key) const {
  if (num_nodes == 0 || key == kPadKey) return std::nullopt;
  const std::uint32_t leaf = find_leaf(key);
  const auto node = keys.subspan(std::size_t{leaf} * keys_per_node, keys_per_node);
  const auto it = std::lower_bound(node.begin(), node.end(), key);
  if (it == node.end() || *it != key) return std::nullopt;
  return values[std::size_t{leaf - first_leaf} * keys_per_node +
                static_cast<std::size_t>(it - node.begin())];
}

std::vector<btree::Entry> TreeView::range(Key lo, Key hi, std::size_t limit) const {
  std::vector<btree::Entry> out;
  if (num_nodes == 0 || lo > hi || lo == kPadKey) return out;
  // Walk the consecutive leaf level of the key region (§3.2.1), skipping
  // node-tail pads.
  const std::size_t leaf_base = std::size_t{first_leaf} * keys_per_node;
  for (std::size_t i = std::size_t{find_leaf(lo)} * keys_per_node; i < keys.size(); ++i) {
    if (keys[i] == kPadKey || keys[i] < lo) continue;
    if (keys[i] > hi) return out;
    out.push_back({keys[i], values[i - leaf_base]});
    if (limit != 0 && out.size() >= limit) return out;
  }
  return out;
}

TreeView HarmoniaTree::view() const {
  return TreeView{height(), keys_per_node(), num_nodes_, first_leaf_,
                  key_region_, prefix_sum_, value_region_};
}

HarmoniaTree::HarmoniaTree(unsigned fanout, std::span<const std::size_t> level_sizes,
                           std::uint64_t num_keys)
    : fanout_(fanout), num_keys_(num_keys) {
  for (const std::size_t size : level_sizes) {
    level_start_.push_back(num_nodes_);
    num_nodes_ += static_cast<std::uint32_t>(size);
  }
  first_leaf_ = level_start_.back();
  key_region_.assign(std::size_t{num_nodes_} * keys_per_node(), kPadKey);
  prefix_sum_.assign(num_nodes_ + 1, num_nodes_);
  value_region_.assign(std::size_t{num_leaves()} * keys_per_node(), Value{0});
}

HarmoniaTree HarmoniaTree::from_btree(const btree::BTree& tree) {
  const auto levels = tree.levels();
  HARMONIA_CHECK_MSG(!levels.empty(), "cannot serialize an empty B+tree");
  std::vector<std::size_t> level_sizes;
  for (const auto& level : levels) level_sizes.push_back(level.size());
  HarmoniaTree out(tree.fanout(), level_sizes, tree.size());

  std::uint32_t bfs = 0;
  std::uint32_t next_child = 1;
  for (const auto& level : levels) {
    for (const btree::Node* node : level) {
      std::copy(node->keys.begin(), node->keys.end(),
                out.key_region_.data() + std::size_t{bfs} * out.keys_per_node());
      if (node->leaf) {
        std::copy(node->values.begin(), node->values.end(),
                  out.value_region_.data() + out.value_slot(bfs, 0));
      } else {
        out.prefix_sum_[bfs] = next_child;
        next_child += static_cast<std::uint32_t>(node->children.size());
      }
      ++bfs;
    }
  }
  HARMONIA_CHECK(next_child == out.num_nodes_ || levels.size() == 1);
  return out;
}

HarmoniaTree HarmoniaTree::build(std::span<const btree::Entry> sorted, unsigned fanout,
                                 double fill_factor, std::span<const std::uint32_t> leaf_sizes) {
  std::vector<std::uint32_t> planned;
  if (leaf_sizes.empty()) {
    planned = btree::plan_leaves(sorted.size(), fanout, fill_factor);
    leaf_sizes = planned;
  }
  const auto internal = btree::plan_internal_levels(leaf_sizes.size(), fanout, fill_factor);
  HARMONIA_CHECK_MSG(!sorted.empty(), "cannot build an empty Harmonia tree");
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    HARMONIA_CHECK_MSG(sorted[i - 1].key < sorted[i].key,
                       "build input must be sorted and distinct");
  }
  std::vector<std::size_t> level_sizes;
  for (const auto& level : internal) level_sizes.push_back(level.size());
  level_sizes.push_back(leaf_sizes.size());
  HarmoniaTree out(fanout, level_sizes, sorted.size());
  const unsigned kpn = out.keys_per_node();

  // Leaf level: copy keys and values, remembering each leaf's min key —
  // the separator its parent stores for it.
  std::vector<Key> min_keys;
  min_keys.reserve(leaf_sizes.size());
  std::size_t pos = 0;
  for (std::size_t l = 0; l < leaf_sizes.size(); ++l) {
    const std::uint32_t size = leaf_sizes[l];
    HARMONIA_CHECK_MSG(size >= 1 && size <= kpn, "leaf of " << size << " entries");
    HARMONIA_CHECK_MSG(pos + size <= sorted.size(), "leaf sizes exceed the entries");
    Key* slots = out.key_region_.data() + (std::size_t{out.first_leaf_} + l) * kpn;
    Value* vals = out.value_region_.data() + l * kpn;
    for (std::uint32_t s = 0; s < size; ++s) {
      slots[s] = sorted[pos + s].key;
      vals[s] = sorted[pos + s].value;
    }
    min_keys.push_back(sorted[pos].key);
    pos += size;
  }
  HARMONIA_CHECK_MSG(pos == sorted.size(), "leaf sizes leave entries out");

  // Internal levels, bottom-up: separators are the min keys of children
  // 1..n-1, and a node's first child follows in the next level.
  for (std::size_t lvl = internal.size(); lvl-- > 0;) {
    std::vector<Key> parent_mins;
    parent_mins.reserve(internal[lvl].size());
    std::uint32_t bfs = out.level_start_[lvl];
    std::uint32_t child = 0;
    for (const std::uint32_t children : internal[lvl]) {
      std::copy(min_keys.data() + child + 1, min_keys.data() + child + children,
                out.key_region_.data() + std::size_t{bfs} * kpn);
      out.prefix_sum_[bfs++] = out.level_start_[lvl + 1] + child;
      parent_mins.push_back(min_keys[child]);
      child += children;
    }
    min_keys = std::move(parent_mins);
  }
  return out;
}

bool HarmoniaTree::leaf_update_inplace(std::uint32_t leaf, Key key, Value value) {
  HARMONIA_CHECK(is_leaf(leaf));
  const auto keys = node_keys(leaf);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return false;
  const auto slot = static_cast<unsigned>(it - keys.begin());
  value_region_[value_slot(leaf, slot)] = value;
  return true;
}

bool HarmoniaTree::leaf_insert_inplace(std::uint32_t leaf, Key key, Value value) {
  HARMONIA_CHECK(is_leaf(leaf));
  HARMONIA_CHECK(key != kPadKey);
  const unsigned kpn = keys_per_node();
  Key* slots = key_region_.data() + static_cast<std::size_t>(leaf) * kpn;
  Value* vals = value_region_.data() + value_slot(leaf, 0);
  const unsigned count = node_key_count(leaf);

  const auto it = std::lower_bound(slots, slots + count, key);
  const auto pos = static_cast<unsigned>(it - slots);
  if (pos < count && slots[pos] == key) {
    vals[pos] = value;  // existing key: plain overwrite
    return true;
  }
  if (count == kpn) return false;  // full: caller takes the split path

  for (unsigned s = count; s > pos; --s) {
    slots[s] = slots[s - 1];
    vals[s] = vals[s - 1];
  }
  slots[pos] = key;
  vals[pos] = value;
  // The updater's fine path holds only the target leaf's lock, so two
  // threads working different leaves mutate this tree-wide counter
  // concurrently; the relaxed atomic keeps the total exact without
  // serializing the leaves (commutative, so still deterministic).
  std::atomic_ref<std::uint64_t>(num_keys_).fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool HarmoniaTree::leaf_erase_inplace(std::uint32_t leaf, Key key) {
  HARMONIA_CHECK(is_leaf(leaf));
  const unsigned kpn = keys_per_node();
  Key* slots = key_region_.data() + static_cast<std::size_t>(leaf) * kpn;
  Value* vals = value_region_.data() + value_slot(leaf, 0);
  const unsigned count = node_key_count(leaf);

  const auto it = std::lower_bound(slots, slots + count, key);
  const auto pos = static_cast<unsigned>(it - slots);
  if (pos >= count || slots[pos] != key) return false;
  HARMONIA_CHECK_MSG(count > 1, "in-place erase would empty the leaf (merge path required)");

  for (unsigned s = pos; s + 1 < count; ++s) {
    slots[s] = slots[s + 1];
    vals[s] = vals[s + 1];
  }
  slots[count - 1] = kPadKey;
  vals[count - 1] = Value{0};
  // See leaf_insert_inplace: per-leaf locks don't cover this counter.
  std::atomic_ref<std::uint64_t>(num_keys_).fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::vector<btree::Entry> HarmoniaTree::leaf_entries(std::uint32_t leaf) const {
  HARMONIA_CHECK(is_leaf(leaf));
  const auto keys = node_keys(leaf);
  std::vector<btree::Entry> out;
  for (unsigned s = 0; s < node_key_count(leaf); ++s) {
    out.push_back({keys[s], value_region_[value_slot(leaf, s)]});
  }
  return out;
}

namespace {

constexpr std::uint32_t kMagic = 0x484D5254;  // "HMRT"
/// The version save writes. v1 (no extras) and v2 images are sealed by
/// FNV-1a and still load; v3 is the v2 layout sealed by XXH64.
constexpr std::uint32_t kFormatVersion = 3;

/// FNV-1a over a byte range, accumulated into `h`.
void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

/// The running checksum of an image being read: FNV-1a 64 for versions
/// 1 and 2, XXH64 (seed 0) from version 3 on.
class ImageChecksum {
 public:
  explicit ImageChecksum(std::uint32_t version) : fnv_(version < 3) {}

  void update(const void* data, std::size_t n) {
    if (fnv_) {
      fnv1a(fnv_hash_, data, n);
    } else {
      xxh_.update(data, n);
    }
  }
  std::uint64_t digest() const { return fnv_ ? fnv_hash_ : xxh_.digest(); }

 private:
  bool fnv_;
  std::uint64_t fnv_hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  Xxh64 xxh_;
};

template <typename T>
void write_pod(std::ostream& os, Xxh64& h, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
  h.update(&v, sizeof v);
}

template <typename T>
void write_vec(std::ostream& os, Xxh64& h, const std::vector<T>& v) {
  write_pod(os, h, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
  h.update(v.data(), v.size() * sizeof(T));
}

template <typename T>
T read_raw(std::istream& is) {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  return v;
}

template <typename T>
T read_pod(std::istream& is, ImageChecksum& h) {
  const T v = read_raw<T>(is);
  h.update(&v, sizeof v);
  return v;
}

/// Reads a vector whose length is already implied by validated header
/// fields. The stored count must match `expect` — an unguarded count
/// from a bit-flipped image would otherwise drive a huge allocation
/// instead of a clean ContractViolation.
template <typename T>
std::vector<T> read_vec_expect(std::istream& is, ImageChecksum& h, std::uint64_t expect,
                               const char* what) {
  const auto n = read_pod<std::uint64_t>(is, h);
  HARMONIA_CHECK_MSG(n == expect, "corrupt Harmonia image: " << what << " holds " << n
                                      << " entries, header implies " << expect);
  std::vector<T> v(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  h.update(v.data(), v.size() * sizeof(T));
  return v;
}

}  // namespace

void HarmoniaTree::save(std::ostream& os) const { save(os, TreeSnapshotExtras{}); }

void HarmoniaTree::save(std::ostream& os, const TreeSnapshotExtras& extras) const {
  Xxh64 h;
  write_pod(os, h, kMagic);
  write_pod(os, h, kFormatVersion);
  write_pod(os, h, fanout_);
  write_pod(os, h, num_nodes_);
  write_pod(os, h, first_leaf_);
  write_pod(os, h, num_keys_);
  write_vec(os, h, level_start_);
  write_vec(os, h, key_region_);
  write_vec(os, h, prefix_sum_);
  write_vec(os, h, value_region_);
  // Extras section, under the same running checksum. Overlay records
  // are written field by field so the on-disk layout is packed (17 bytes
  // per record) and independent of struct padding.
  write_pod(os, h, extras.fill_factor);
  write_pod(os, h, static_cast<std::uint64_t>(extras.overlay.size()));
  for (const auto& rec : extras.overlay) {
    write_pod(os, h, rec.key);
    write_pod(os, h, rec.value);
    write_pod(os, h, rec.tombstone);
  }
  const std::uint64_t trailer = h.digest();
  os.write(reinterpret_cast<const char*>(&trailer), sizeof trailer);
  HARMONIA_CHECK_MSG(os.good(), "write failure while saving Harmonia image");
}

HarmoniaTree HarmoniaTree::load(std::istream& is, TreeSnapshotExtras* extras) {
  // Magic and version come first: the version picks the checksum that
  // covers them and every byte after them.
  const auto magic = read_raw<std::uint32_t>(is);
  HARMONIA_CHECK_MSG(magic == kMagic, "not a Harmonia tree image (bad magic)");
  const auto version = read_raw<std::uint32_t>(is);
  HARMONIA_CHECK_MSG(version >= 1 && version <= kFormatVersion,
                     "unsupported Harmonia image version " << version);
  ImageChecksum h(version);
  h.update(&magic, sizeof magic);
  h.update(&version, sizeof version);
  HarmoniaTree out;
  out.fanout_ = read_pod<unsigned>(is, h);
  out.num_nodes_ = read_pod<std::uint32_t>(is, h);
  out.first_leaf_ = read_pod<std::uint32_t>(is, h);
  out.num_keys_ = read_pod<std::uint64_t>(is, h);
  // Validate the header before it sizes any allocation: a bit flip in a
  // count field must throw, not drive a multi-gigabyte vector resize.
  // Every writer (build, the batch updater's rebuild, BTree) needs a
  // fanout of at least 4, so a smaller one cannot come from a save.
  HARMONIA_CHECK_MSG(out.fanout_ >= 4 && out.fanout_ <= 4096,
                     "corrupt Harmonia image: fanout " << out.fanout_);
  HARMONIA_CHECK_MSG(out.num_nodes_ > 0, "corrupt Harmonia image: zero nodes");
  HARMONIA_CHECK_MSG(out.first_leaf_ < out.num_nodes_,
                     "corrupt Harmonia image: first_leaf " << out.first_leaf_
                                                           << " >= num_nodes " << out.num_nodes_);
  const auto kpn = static_cast<std::uint64_t>(out.fanout_ - 1);
  HARMONIA_CHECK_MSG(out.num_keys_ <= (out.num_nodes_ - out.first_leaf_) * kpn,
                     "corrupt Harmonia image: num_keys " << out.num_keys_
                                                         << " exceeds leaf capacity");
  const auto levels = read_pod<std::uint64_t>(is, h);
  HARMONIA_CHECK_MSG(levels >= 1 && levels <= 64,
                     "corrupt Harmonia image: " << levels << " levels");
  out.level_start_.resize(levels);
  is.read(reinterpret_cast<char*>(out.level_start_.data()),
          static_cast<std::streamsize>(levels * sizeof(std::uint32_t)));
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image");
  h.update(out.level_start_.data(), levels * sizeof(std::uint32_t));
  out.key_region_ = read_vec_expect<Key>(is, h, out.num_nodes_ * kpn, "key region");
  out.prefix_sum_ = read_vec_expect<std::uint32_t>(is, h, out.num_nodes_ + std::uint64_t{1},
                                                   "prefix-sum region");
  out.value_region_ = read_vec_expect<Value>(
      is, h, (out.num_nodes_ - out.first_leaf_) * kpn, "value region");

  TreeSnapshotExtras ex;
  if (version >= 2) {
    ex.fill_factor = read_pod<double>(is, h);
    HARMONIA_CHECK_MSG(ex.fill_factor > 0.0 && ex.fill_factor <= 1.0,
                       "corrupt Harmonia image: fill_factor " << ex.fill_factor);
    const auto overlay_count = read_pod<std::uint64_t>(is, h);
    HARMONIA_CHECK_MSG(overlay_count <= out.num_keys_ + (std::uint64_t{1} << 20),
                       "corrupt Harmonia image: overlay holds " << overlay_count << " records");
    ex.overlay.resize(overlay_count);
    for (std::uint64_t i = 0; i < overlay_count; ++i) {
      auto& rec = ex.overlay[i];
      rec.key = read_pod<Key>(is, h);
      rec.value = read_pod<Value>(is, h);
      rec.tombstone = read_pod<std::uint8_t>(is, h);
      HARMONIA_CHECK_MSG(rec.key != kPadKey, "corrupt Harmonia image: pad key in overlay");
      HARMONIA_CHECK_MSG(rec.tombstone <= 1,
                         "corrupt Harmonia image: overlay tombstone flag " << +rec.tombstone);
      HARMONIA_CHECK_MSG(i == 0 || ex.overlay[i - 1].key < rec.key,
                         "corrupt Harmonia image: overlay keys not strictly ascending");
    }
  }

  std::uint64_t stored = 0;
  is.read(reinterpret_cast<char*>(&stored), sizeof stored);
  HARMONIA_CHECK_MSG(is.good(), "truncated Harmonia image (missing checksum)");
  HARMONIA_CHECK_MSG(stored == h.digest(), "Harmonia image checksum mismatch");
  out.validate();  // never trust bytes from disk
  if (extras != nullptr) *extras = std::move(ex);
  return out;
}

void HarmoniaTree::validate() const {
  HARMONIA_CHECK(num_nodes_ > 0);
  const unsigned kpn = keys_per_node();
  HARMONIA_CHECK(key_region_.size() == static_cast<std::size_t>(num_nodes_) * kpn);
  HARMONIA_CHECK(prefix_sum_.size() == static_cast<std::size_t>(num_nodes_) + 1);
  HARMONIA_CHECK(prefix_sum_[num_nodes_] == num_nodes_);
  HARMONIA_CHECK(value_region_.size() ==
                 static_cast<std::size_t>(num_leaves()) * kpn);

  std::uint64_t leaf_keys = 0;
  for (std::uint32_t n = 0; n < num_nodes_; ++n) {
    const auto keys = node_keys(n);
    // Real keys form a sorted, strictly increasing prefix; pads the tail.
    unsigned count = node_key_count(n);
    for (unsigned s = 0; s + 1 < count; ++s) {
      HARMONIA_CHECK_MSG(keys[s] < keys[s + 1], "node keys not strictly ascending");
    }
    for (unsigned s = count; s < kpn; ++s) {
      HARMONIA_CHECK_MSG(keys[s] == kPadKey, "pad slot before a real key");
    }

    if (is_leaf(n)) {
      HARMONIA_CHECK_MSG(child_count(n) == 0, "leaf with children");
      HARMONIA_CHECK_MSG(count > 0, "empty leaf node");
      leaf_keys += count;
    } else {
      HARMONIA_CHECK_MSG(child_count(n) == count + 1, "internal children != keys + 1");
      HARMONIA_CHECK_MSG(prefix_sum_[n] > n, "child index not after parent in BFS order");
      // Separator s bounds its neighbours: every key in child s's subtree
      // is < keys[s] and every key in child s+1's subtree is >= keys[s].
      // (Equality with the right subtree's min can drift after in-place
      // deletes; the bound is what routing correctness needs.)
      for (unsigned s = 0; s < count; ++s) {
        std::uint32_t right = prefix_sum_[n] + s + 1;
        while (!is_leaf(right)) right = prefix_sum_[right];
        HARMONIA_CHECK_MSG(node_keys(right)[0] >= keys[s],
                           "right child subtree min below separator");
        std::uint32_t left = prefix_sum_[n] + s;
        while (!is_leaf(left)) left = prefix_sum_[left] + child_count(left) - 1;
        const unsigned left_count = node_key_count(left);
        HARMONIA_CHECK_MSG(left_count > 0 && node_keys(left)[left_count - 1] < keys[s],
                           "left child subtree max not below separator");
      }
    }
  }
  HARMONIA_CHECK_MSG(leaf_keys == num_keys_, "leaf key total mismatch");

  // The leaf level's real keys ascend globally (consecutive sorted array).
  Key prev = 0;
  bool have_prev = false;
  for (std::uint32_t n = first_leaf_; n < num_nodes_; ++n) {
    const auto keys = node_keys(n);
    for (unsigned s = 0; s < node_key_count(n); ++s) {
      HARMONIA_CHECK_MSG(!have_prev || keys[s] > prev, "leaf level not globally sorted");
      prev = keys[s];
      have_prev = true;
    }
  }

  // Every level's start index is consistent with the prefix-sum array.
  for (unsigned lvl = 0; lvl + 1 < height(); ++lvl) {
    HARMONIA_CHECK(prefix_sum_[level_start_[lvl]] == level_start_[lvl + 1]);
  }
}

}  // namespace harmonia
