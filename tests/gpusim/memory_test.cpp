#include "gpusim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"

namespace harmonia::gpusim {
namespace {

TEST(Memory, RoundTripGlobal) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint64_t>(16);
  std::vector<std::uint64_t> in(16);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = i * 3 + 1;
  mem.copy_to_device(p, std::span<const std::uint64_t>(in));
  std::vector<std::uint64_t> out(16);
  mem.copy_to_host(std::span<std::uint64_t>(out), p);
  EXPECT_EQ(in, out);
}

TEST(Memory, RoundTripConstant) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.const_malloc<std::uint32_t>(8);
  EXPECT_TRUE(is_const_address(p.addr));
  std::vector<std::uint32_t> in{1, 2, 3, 4, 5, 6, 7, 8};
  mem.copy_to_device(p, std::span<const std::uint32_t>(in));
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mem.read<std::uint32_t>(p.element_addr(i)), in[i]);
  }
}

TEST(Memory, NullPointerIsAddressZero) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint64_t>(1);
  EXPECT_NE(p.addr, 0u);  // address 0 is reserved as null
  EXPECT_FALSE(p.is_null());
  EXPECT_TRUE((DevPtr<std::uint64_t>{}).is_null());
}

TEST(Memory, AllocationsAreAligned) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint8_t>(3);
  auto b = mem.malloc<std::uint8_t>(3);
  EXPECT_EQ(a.addr % 256, 0u);
  EXPECT_EQ(b.addr % 256, 0u);
  EXPECT_NE(a.addr, b.addr);
}

TEST(Memory, GlobalOverflowThrows) {
  Memory mem(4 << 10, 64 << 10);
  EXPECT_THROW(mem.malloc<std::uint64_t>(1 << 20), ContractViolation);
}

TEST(Memory, ConstantOverflowThrows) {
  Memory mem(1 << 20, 1 << 10);
  EXPECT_THROW(mem.const_malloc<std::uint64_t>(1 << 10), ContractViolation);
}

TEST(Memory, OutOfBoundsReadThrows) {
  Memory mem(1 << 20, 64 << 10);
  std::uint64_t out;
  EXPECT_THROW(mem.read_bytes(1 << 19, &out, sizeof out), ContractViolation);
}

TEST(Memory, FreeAllResets) {
  Memory mem(1 << 20, 64 << 10);
  auto a = mem.malloc<std::uint64_t>(64);
  mem.free_all();
  auto b = mem.malloc<std::uint64_t>(64);
  EXPECT_EQ(a.addr, b.addr);  // bump allocator restarted
  EXPECT_EQ(mem.const_used(), 0u);
}

TEST(Memory, ElementAddressArithmetic) {
  DevPtr<std::uint64_t> p{1024};
  EXPECT_EQ(p.element_addr(0), 1024u);
  EXPECT_EQ(p.element_addr(3), 1024u + 24u);
  EXPECT_EQ(p.offset(2).addr, 1024u + 16u);
}

TEST(Memory, ConstAndGlobalSpacesDisjoint) {
  Memory mem(1 << 20, 64 << 10);
  auto g = mem.malloc<std::uint64_t>(4);
  auto c = mem.const_malloc<std::uint64_t>(4);
  mem.write(g.element_addr(0), std::uint64_t{111});
  mem.write(c.element_addr(0), std::uint64_t{222});
  EXPECT_EQ(mem.read<std::uint64_t>(g.element_addr(0)), 111u);
  EXPECT_EQ(mem.read<std::uint64_t>(c.element_addr(0)), 222u);
}

// Typed reads and writes take an inline path for in-bounds global
// addresses; the bounds must sit exactly where the checked path puts them.
TEST(Memory, TypedAccessAtTheLastGlobalByte) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint8_t>(1000);
  const std::uint64_t end = p.addr + 1000;
  ASSERT_EQ(mem.global_used(), end);
  mem.write(end - 8, std::uint64_t{0x0123456789abcdef});
  EXPECT_EQ(mem.read<std::uint64_t>(end - 8), 0x0123456789abcdefu);
  mem.write(end - 1, std::uint8_t{7});
  EXPECT_EQ(mem.read<std::uint8_t>(end - 1), 7u);
}

TEST(Memory, TypedAccessOneBytePastGlobalEndThrows) {
  Memory mem(1 << 20, 64 << 10);
  auto p = mem.malloc<std::uint8_t>(1000);
  const std::uint64_t end = p.addr + 1000;
  EXPECT_THROW(mem.read<std::uint64_t>(end - 7), ContractViolation);
  EXPECT_THROW(mem.write(end - 7, std::uint64_t{1}), ContractViolation);
  EXPECT_THROW(mem.read<std::uint8_t>(end), ContractViolation);
  EXPECT_THROW(mem.write(end, std::uint8_t{1}), ContractViolation);
}

TEST(Memory, TypedAccessAtTheLastConstantByte) {
  Memory mem(1 << 20, 1 << 10);
  mem.const_malloc<std::uint8_t>(1 << 10);
  const std::uint64_t end = kConstBase + mem.const_capacity();
  mem.write(end - 4, std::uint32_t{0xfeedbeef});
  EXPECT_EQ(mem.read<std::uint32_t>(end - 4), 0xfeedbeefu);
  EXPECT_THROW(mem.read<std::uint32_t>(end - 3), ContractViolation);
  EXPECT_THROW(mem.write(end - 3, std::uint32_t{1}), ContractViolation);
  EXPECT_THROW(mem.read<std::uint8_t>(end), ContractViolation);
  EXPECT_THROW(mem.write(end, std::uint8_t{1}), ContractViolation);
}

// A warp row is served with one bounds check per row: the row must lie
// inside the segment's allocations, to the byte.
TEST(Memory, ConstantRowEndingAtConstUsed) {
  Memory mem(1 << 20, 64 << 10);
  const auto c = mem.const_malloc<std::uint32_t>(100);  // leaves most of the capacity free
  const std::uint64_t end = kConstBase + mem.const_used();
  ASSERT_EQ(end, c.element_addr(100));
  ASSERT_LT(mem.const_used(), mem.const_capacity());
  const std::vector<std::uint32_t> in = {1, 2, 3, 4, 5, 6, 7, 8};
  mem.write_row(end - 32, 8, in.data());
  std::vector<std::uint32_t> out(8);
  mem.read_row(end - 32, 8, out.data());
  EXPECT_EQ(out, in);
  // The same row one byte later ends past const_used().
  EXPECT_THROW(mem.read_row(end - 31, 8, out.data()), ContractViolation);
  EXPECT_THROW(mem.write_row(end - 31, 8, in.data()), ContractViolation);
  EXPECT_THROW(mem.read_row(end, 1, out.data()), ContractViolation);
}

TEST(Memory, GlobalRowEndingAtGlobalUsed) {
  Memory mem(1 << 20, 64 << 10);
  const auto p = mem.malloc<std::uint8_t>(1000);
  const std::uint64_t end = p.addr + 1000;
  const std::vector<std::uint64_t> in = {9, 8, 7, 6};
  mem.write_row(end - 32, 4, in.data());
  std::vector<std::uint64_t> out(4);
  mem.read_row(end - 32, 4, out.data());
  EXPECT_EQ(out, in);
  EXPECT_THROW(mem.read_row(end - 31, 4, out.data()), ContractViolation);
  EXPECT_THROW(mem.write_row(end - 31, 4, in.data()), ContractViolation);
}

TEST(Memory, AddressesNearTheTopOfTheSpaceThrow) {
  // addr + sizeof(T) wraps around here; the check must not.
  Memory mem(1 << 20, 64 << 10);
  const std::uint64_t top = ~std::uint64_t{0} - 3;
  EXPECT_THROW(mem.read<std::uint64_t>(top), ContractViolation);
  EXPECT_THROW(mem.write(top, std::uint64_t{1}), ContractViolation);
}

// Every global byte in [0, global_used) read back through the checked path.
std::vector<std::uint8_t> global_bytes(const Memory& mem) {
  std::vector<std::uint8_t> out(mem.global_used());
  mem.read_bytes(0, out.data(), out.size());
  return out;
}

bool all_zero(const std::vector<std::uint8_t>& bytes) {
  return std::all_of(bytes.begin(), bytes.end(), [](std::uint8_t b) { return b == 0; });
}

TEST(Memory, FreshAllocationAfterFreeAllReadsZero) {
  Memory mem(1 << 20, 64 << 10);
  // Odd sizes leave alignment gaps; the pattern covers every allocated byte.
  const auto a = mem.malloc<std::uint8_t>(1000);
  const auto b = mem.malloc<std::uint8_t>(5000);
  const std::vector<std::uint8_t> pattern(5000, 0xab);
  mem.copy_to_device(a, std::span<const std::uint8_t>(pattern.data(), 1000));
  mem.copy_to_device(b, std::span<const std::uint8_t>(pattern));
  mem.write(std::uint64_t{0}, std::uint64_t{0x0123456789abcdef});  // the null unit too
  ASSERT_FALSE(all_zero(global_bytes(mem)));

  mem.free_all();
  const auto same = mem.malloc<std::uint8_t>(1000);
  EXPECT_EQ(same.addr, a.addr);
  EXPECT_TRUE(all_zero(global_bytes(mem)));
  // Reaches past the old high-water mark: dirty bytes, then never-touched ones.
  const auto larger = mem.malloc<std::uint8_t>(6000);
  EXPECT_EQ(larger.addr, b.addr);
  EXPECT_GT(mem.global_used(), b.addr + 5000);
  EXPECT_TRUE(all_zero(global_bytes(mem)));
}

TEST(Memory, ReadPastUsedAfterFreeAllThrows) {
  Memory mem(1 << 20, 64 << 10);
  const auto p = mem.malloc<std::uint64_t>(512);
  const std::uint64_t addr = p.element_addr(300);
  mem.write(addr, std::uint64_t{42});
  ASSERT_EQ(mem.read<std::uint64_t>(addr), 42u);

  mem.free_all();
  std::uint64_t out = 0;
  EXPECT_THROW(mem.read_bytes(addr, &out, sizeof out), ContractViolation);
  EXPECT_THROW(mem.read<std::uint64_t>(addr), ContractViolation);
  EXPECT_THROW(mem.write(addr, std::uint64_t{1}), ContractViolation);
}

TEST(Memory, MoveTransfersTheReservation) {
  Memory a(1 << 20, 64 << 10);
  const auto g = a.malloc<std::uint64_t>(4);
  const auto c = a.const_malloc<std::uint64_t>(4);
  a.write(g.element_addr(1), std::uint64_t{7});
  a.write(c.element_addr(1), std::uint64_t{9});
  const std::uint64_t used = a.global_used();

  Memory b(std::move(a));
  EXPECT_EQ(b.global_capacity(), 1u << 20);
  EXPECT_EQ(b.global_used(), used);
  EXPECT_EQ(b.read<std::uint64_t>(g.element_addr(1)), 7u);
  EXPECT_EQ(b.read<std::uint64_t>(c.element_addr(1)), 9u);
  // The moved-from Memory owns no segment: every access throws.
  EXPECT_EQ(a.global_capacity(), 0u);
  EXPECT_THROW(a.read<std::uint64_t>(g.element_addr(1)), ContractViolation);
  EXPECT_THROW(a.malloc<std::uint64_t>(1), ContractViolation);

  Memory d(4 << 10, 1 << 10);
  d = std::move(b);
  EXPECT_EQ(d.global_capacity(), 1u << 20);
  EXPECT_EQ(d.read<std::uint64_t>(g.element_addr(1)), 7u);
  d.free_all();
  EXPECT_EQ(d.malloc<std::uint64_t>(4).addr, g.addr);
}

// Each device reserves its whole 12 GiB global segment up front; the
// reservation is address space only and is released with the device.
TEST(Memory, SixtyFourTitanVDevicesReserveAndRelease) {
  for (int i = 0; i < 64; ++i) {
    Device dev(titan_v());
    ASSERT_EQ(dev.memory().global_capacity(), 12ULL << 30);
    const auto p = dev.memory().malloc<std::uint64_t>(1 << 10);
    dev.memory().write(p.element_addr(1023), std::uint64_t{1});
    EXPECT_EQ(dev.memory().read<std::uint64_t>(p.element_addr(1023)), 1u);
  }
}

}  // namespace
}  // namespace harmonia::gpusim
