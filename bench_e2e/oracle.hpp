// Correctness oracle: every point, range and scan answer is checked
// against the snapshot of the epoch its response reports.
//
// A response with epoch e observed exactly the first e update epochs.
// Rather than copy the key map once per epoch (79 epochs x 2^21 keys
// would cost gigabytes), the oracle keeps ONE map, sorts the query
// responses by epoch, and walks forward: before checking the queries of
// epoch e it applies epoch e's updates, in arrival order — the order the
// serving layer applies them in (apply_threads = 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "harmonia/search.hpp"
#include "serve/backend.hpp"
#include "serve/request.hpp"

namespace e2e {

using harmonia::Key;
using harmonia::Value;

/// Wrong answers in one served stream. `initial_keys` (sorted) is the
/// state the stream started from; `max_range_results` the scheduler's cap
/// on range/scan answers. Dropped responses are not answers and are not
/// checked (the caller counts them as failures). Prints the first few
/// mismatches to stderr.
std::uint64_t check_stream(std::span<const Key> initial_keys,
                           std::span<const harmonia::serve::Request> stream,
                           const harmonia::serve::ServerReport& report,
                           unsigned max_range_results);

/// Wrong answers in one closed-loop lookup batch (the tree never changes,
/// so the expected value is btree::value_for_key for a present key).
std::uint64_t check_lookups(std::span<const Key> sorted_keys, std::span<const Key> batch,
                            std::span<const Value> values);

}  // namespace e2e
