#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace harmonia::gpusim {
namespace {

/// Accesses every line in [0, lines) once; returns how many hit.
std::uint64_t hits_over(Cache& c, std::uint64_t lines) {
  std::uint64_t hits = 0;
  for (std::uint64_t line = 0; line < lines; ++line) {
    if (c.access(line)) ++hits;
  }
  return hits;
}

TEST(Cache, MissThenHit) {
  Cache c(1024, 128, 2);  // 4 sets x 2 ways
  EXPECT_FALSE(c.access(10));
  EXPECT_TRUE(c.access(10));
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(2 * 128, 128, 2);  // 1 set, 2 ways: lines 0,1,2 conflict
  c.access(0);
  c.access(1);
  c.access(0);     // 0 is now MRU
  c.access(2);     // evicts 1 (LRU)
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, SetsIsolateLines) {
  Cache c(4 * 128, 128, 1);  // 4 direct-mapped sets
  // Lines 0..3 map to distinct sets -> all retained.
  for (std::uint64_t line = 0; line < 4; ++line) c.access(line);
  for (std::uint64_t line = 0; line < 4; ++line) EXPECT_TRUE(c.contains(line));
  // Line 4 conflicts with line 0 only.
  c.access(4);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
}

TEST(Cache, FlushEmptiesTags) {
  Cache c(1024, 128, 2);
  c.access(5);
  c.flush();
  EXPECT_FALSE(c.contains(5));
  EXPECT_FALSE(c.access(5));  // miss again after flush
}

TEST(Cache, CapacityHoldsWorkingSet) {
  Cache c(64 * 128, 128, 8);  // 64 lines total
  EXPECT_EQ(hits_over(c, 64), 0u);
  EXPECT_EQ(hits_over(c, 64), 64u);  // every line still resident
}

TEST(Cache, ThrashingWorkingSetMisses) {
  Cache c(64 * 128, 128, 8);  // 8 sets x 8 ways
  // 128 lines cycled: every access misses once warm (LRU, round robin).
  for (int round = 0; round < 2; ++round) EXPECT_EQ(hits_over(c, 128), 0u);
}

TEST(Cache, InvalidGeometryThrows) {
  EXPECT_THROW(Cache(1000, 128, 2), ContractViolation);  // not a multiple
}

// Oracle: the tick-stamped LRU the cache model is defined by. Every way
// holds {tag, last-use tick}; a miss replaces the way with the smallest
// tick (the first such way, so invalid ways at tick 0 fill in order).
class TickLruCache {
 public:
  TickLruCache(std::uint64_t bytes, unsigned line_bytes, unsigned ways)
      : ways_(ways), num_sets_(bytes / line_bytes / ways), slots_(num_sets_ * ways) {}

  bool access(std::uint64_t line) {
    Way* set = &slots_[(line % num_sets_) * ways_];
    ++tick_;
    Way* lru = set;
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].tag == line) {
        set[w].lru = tick_;
        ++hits_;
        return true;
      }
      if (set[w].lru < lru->lru) lru = &set[w];
    }
    ++misses_;
    *lru = {line, tick_};
    return false;
  }

  bool contains(std::uint64_t line) const {
    const Way* set = &slots_[(line % num_sets_) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].tag == line) return true;
    }
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lru = 0;
  };
  unsigned ways_;
  std::uint64_t num_sets_;
  std::vector<Way> slots_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(Cache, MatchesTickLruOracleOnRandomStreams) {
  struct Geometry {
    std::uint64_t sets;
    unsigned ways;
  };
  // Direct-mapped, 2-way and 8-way, and the L2's non-power-of-two 4608
  // sets (titan_v: 4.5 MB of 128 B lines, 8 ways).
  const std::array<Geometry, 4> geometries{{{64, 1}, {32, 2}, {16, 8}, {4608, 8}}};
  Xoshiro256 rng(11);
  for (const Geometry& geo : geometries) {
    const std::uint64_t bytes = geo.sets * geo.ways * 128;
    Cache cache(bytes, 128, geo.ways);
    TickLruCache oracle(bytes, 128, geo.ways);
    std::uint64_t hits = 0, misses = 0;
    // A working set a bit over the capacity, so hits, fills and
    // evictions all happen; a hot subset adds reuse at the front.
    const std::uint64_t span = geo.sets * geo.ways * 3 / 2;
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t line =
          rng.next() % 4 == 0 ? rng.next() % (geo.ways + 1) : rng.next() % span;
      const bool hit = cache.access(line);
      ASSERT_EQ(hit, oracle.access(line))
          << "sets=" << geo.sets << " ways=" << geo.ways << " access " << i;
      ++(hit ? hits : misses);
      if (i % 97 == 0) {
        const std::uint64_t probe = rng.next() % span;
        ASSERT_EQ(cache.contains(probe), oracle.contains(probe));
      }
      if (i == 150000) {
        cache.flush();
        oracle = TickLruCache(bytes, 128, geo.ways);
        hits = misses = 0;
      }
    }
    EXPECT_EQ(hits, oracle.hits());
    EXPECT_EQ(misses, oracle.misses());
    for (std::uint64_t line = 0; line < span; ++line)
      ASSERT_EQ(cache.contains(line), oracle.contains(line));
  }
}

}  // namespace
}  // namespace harmonia::gpusim
