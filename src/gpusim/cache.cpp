#include "gpusim/cache.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace harmonia::gpusim {

Cache::Cache(std::uint64_t bytes, unsigned line_bytes, unsigned ways)
    : line_bytes_(line_bytes), ways_(ways), capacity_bytes_(bytes) {
  HARMONIA_CHECK(line_bytes > 0 && ways > 0);
  HARMONIA_CHECK_MSG(bytes % (static_cast<std::uint64_t>(line_bytes) * ways) == 0,
                     "cache capacity must be a multiple of line_bytes*ways");
  num_sets_ = bytes / line_bytes / ways;
  HARMONIA_CHECK(num_sets_ > 0);
  tags_.assign(num_sets_ * ways_, kInvalid);
}

std::size_t Cache::set_index(std::uint64_t line_addr) const {
  // line_addr is already line-granular (addr / line_bytes from the coalescer),
  // so a simple modulo distributes consecutive lines across sets.
  return static_cast<std::size_t>(line_addr % num_sets_);
}

bool Cache::access(std::uint64_t line_addr) {
  HARMONIA_DCHECK(line_addr != kInvalid);
  std::uint64_t* set = &tags_[set_index(line_addr) * ways_];
  // Move to front while scanning: each way takes the tag before it, so a
  // hit ends with its tag at the front and the ones above it shifted down
  // one way, and a miss drops the last tag (invalid ways sit behind every
  // valid one, so they fill before the true LRU tag is evicted).
  std::uint64_t carry = line_addr;
  for (unsigned w = 0; w < ways_; ++w) {
    const std::uint64_t tag = set[w];
    set[w] = carry;
    if (tag == line_addr) return true;
    carry = tag;
  }
  return false;
}

bool Cache::contains(std::uint64_t line_addr) const {
  const std::uint64_t* set = &tags_[set_index(line_addr) * ways_];
  return std::find(set, set + ways_, line_addr) != set + ways_;
}

void Cache::flush() { std::fill(tags_.begin(), tags_.end(), kInvalid); }

}  // namespace harmonia::gpusim
