#include "sort/gpu_sort_model.hpp"

#include <gtest/gtest.h>

namespace harmonia::sort {
namespace {

TEST(PsaBits, PaperExample) {
  // §4.1.2: B=64, T=2^23, 128 B line holding K=16 keys -> N = 19.
  EXPECT_EQ(psa_bits(64, 1ULL << 23, 16), 19u);
}

TEST(PsaBits, ScalesWithTreeSize) {
  EXPECT_EQ(psa_bits(64, 1ULL << 24, 16), 20u);
  EXPECT_EQ(psa_bits(64, 1ULL << 25, 16), 21u);
  EXPECT_EQ(psa_bits(64, 1ULL << 26, 16), 22u);
}

TEST(PsaBits, TinyTreeNeedsNoSort) {
  EXPECT_EQ(psa_bits(64, 8, 16), 0u);   // line covers the whole range
  EXPECT_EQ(psa_bits(64, 16, 16), 0u);  // exactly one line of keys
}

TEST(PsaBits, ClampsToKeyBits) {
  EXPECT_LE(psa_bits(16, 1ULL << 40, 1), 16u);
}

TEST(GpuSortModel, ZeroWorkIsFree) {
  const auto spec = gpusim::titan_v();
  EXPECT_DOUBLE_EQ(gpu_radix_sort_cycles(spec, 0, 19), 0.0);
  EXPECT_DOUBLE_EQ(gpu_radix_sort_cycles(spec, 1000, 0), 0.0);
}

TEST(GpuSortModel, CostProportionalToBits) {
  // §4.1.2: "the execution time is proportional to the sorted bits".
  const auto spec = gpusim::titan_v();
  const std::uint64_t n = 1 << 20;
  const double c8 = gpu_radix_sort_cycles(spec, n, 8);
  const double c16 = gpu_radix_sort_cycles(spec, n, 16);
  const double c64 = gpu_radix_sort_cycles(spec, n, 64);
  EXPECT_NEAR(c16 / c8, 2.0, 0.01);
  EXPECT_NEAR(c64 / c8, 8.0, 0.01);
}

TEST(GpuSortModel, PartialSortCheaperFraction) {
  // The paper reports the 19-bit sort at ~35% of the full 64-bit sort.
  const auto spec = gpusim::titan_v();
  const std::uint64_t n = 1 << 22;
  const double partial = gpu_radix_sort_cycles(spec, n, 19);
  const double full = gpu_radix_sort_cycles(spec, n, 64);
  EXPECT_NEAR(partial / full, 3.0 / 8.0, 0.02);  // 3 of 8 digit passes
}

TEST(GpuSortModel, CostScalesWithN) {
  const auto spec = gpusim::titan_v();
  const double c1 = gpu_radix_sort_cycles(spec, 1 << 20, 64);
  const double c2 = gpu_radix_sort_cycles(spec, 1 << 21, 64);
  EXPECT_GT(c2, c1 * 1.8);
  EXPECT_LT(c2, c1 * 2.2);
}

TEST(GpuSortModel, PayloadCostsMore) {
  const auto spec = gpusim::titan_v();
  EXPECT_GT(gpu_radix_sort_cycles(spec, 1 << 20, 64, true),
            gpu_radix_sort_cycles(spec, 1 << 20, 64, false));
}

}  // namespace
}  // namespace harmonia::sort
