// Simulated device memory: a global segment and a constant segment.
//
// Addresses are plain 64-bit integers in a single simulated address space;
// the constant segment lives at kConstBase so the warp-load path can route
// accesses to the constant cache by address alone, the way real hardware
// routes `__constant__` accesses through the constant cache.
//
// The global segment is one reservation per device: an anonymous host
// mapping of the device's whole global capacity, made at construction.
// The host commits only the pages that allocations touch (peak RSS counts
// touched pages, not the capacity), a fresh allocation always reads as
// zero, and free_all() keeps the pages, so re-uploading an image of the
// same size neither reallocates nor faults it in again.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/expect.hpp"

namespace harmonia::gpusim {

/// Constant-memory addresses are offset by this base. Global allocations
/// can never reach it (checked at malloc time).
inline constexpr std::uint64_t kConstBase = 1ULL << 48;

inline bool is_const_address(std::uint64_t addr) { return addr >= kConstBase; }

/// Typed device pointer: an address plus element arithmetic. Host code
/// cannot dereference it directly — go through Memory, as with real CUDA.
template <typename T>
struct DevPtr {
  std::uint64_t addr = 0;

  bool is_null() const { return addr == 0; }
  std::uint64_t element_addr(std::uint64_t i) const { return addr + i * sizeof(T); }
  DevPtr<T> offset(std::uint64_t i) const { return DevPtr<T>{element_addr(i)}; }
};

class Memory {
 public:
  Memory(std::uint64_t global_bytes, std::uint64_t const_bytes);
  ~Memory();
  Memory(Memory&& other) noexcept;
  Memory& operator=(Memory&& other) noexcept;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Bump-allocates `count` elements in global memory, 256 B aligned.
  /// The new bytes read as zero.
  template <typename T>
  DevPtr<T> malloc(std::uint64_t count) {
    return DevPtr<T>{alloc_bytes(count * sizeof(T), /*constant=*/false)};
  }

  /// Allocates in the (small) constant segment; throws if it does not fit.
  template <typename T>
  DevPtr<T> const_malloc(std::uint64_t count) {
    return DevPtr<T>{alloc_bytes(count * sizeof(T), /*constant=*/true)};
  }

  /// Releases everything allocated so far (both segments). The global
  /// segment's host pages stay committed for the next allocations.
  void free_all();

  template <typename T>
  void copy_to_device(DevPtr<T> dst, std::span<const T> src) {
    write_bytes(dst.addr, src.data(), src.size_bytes());
  }

  template <typename T>
  void copy_to_host(std::span<T> dst, DevPtr<T> src) {
    read_bytes(src.addr, dst.data(), dst.size_bytes());
  }

  /// Simulator-side typed load and store, for host code that reads or
  /// patches what the device holds. Bounds are checked like read_bytes.
  template <typename T>
  T read(std::uint64_t addr) const {
    T out;
    read_row(addr, 1, &out);
    return out;
  }

  template <typename T>
  void write(std::uint64_t addr, const T& value) {
    write_row(addr, 1, &value);
  }

  /// One row of a warp access (used by warp gather after accounting):
  /// the `count` consecutive elements at `addr`. One bounds check for the
  /// row, in whichever segment holds it, then fixed-size element copies
  /// (a row is at most a warp, too short for a libc memcpy call to pay).
  template <typename T>
  void read_row(std::uint64_t addr, unsigned count, T* out) const {
    const std::uint8_t* src = bytes_at(addr, std::size_t{count} * sizeof(T));
    for (unsigned i = 0; i < count; ++i) std::memcpy(out + i, src + i * sizeof(T), sizeof(T));
  }

  /// A broadcast row: the one element at `addr`, copied to `count` lanes.
  template <typename T>
  void read_broadcast(std::uint64_t addr, unsigned count, T* out) const {
    const std::uint8_t* src = bytes_at(addr, sizeof(T));
    for (unsigned i = 0; i < count; ++i) std::memcpy(out + i, src, sizeof(T));
  }

  template <typename T>
  void write_row(std::uint64_t addr, unsigned count, const T* in) {
    std::uint8_t* dst = bytes_at(addr, std::size_t{count} * sizeof(T));
    for (unsigned i = 0; i < count; ++i) std::memcpy(dst + i * sizeof(T), in + i, sizeof(T));
  }

  /// Simulator-side read-only view of `count` elements at `p`, in either
  /// segment, for code that reads what the device holds in place (a host
  /// walk of the committed image, a kernel whose loads are accounted with
  /// WarpCtx::touch). No access is accounted; bounds are checked like
  /// read_bytes.
  template <typename T>
  std::span<const T> view(DevPtr<T> p, std::uint64_t count) const {
    if (count == 0) return {};
    return {reinterpret_cast<const T*>(bytes_at(p.addr, count * sizeof(T))), count};
  }

  std::uint64_t global_used() const { return global_used_; }
  std::uint64_t const_used() const { return const_used_; }
  std::uint64_t global_capacity() const { return global_capacity_; }
  std::uint64_t const_capacity() const { return const_.size(); }

  /// Checked copies: [addr, addr+n) must lie inside the allocations of
  /// one segment, else ContractViolation.
  void read_bytes(std::uint64_t addr, void* out, std::size_t n) const;
  void write_bytes(std::uint64_t addr, const void* in, std::size_t n);

 private:
  std::uint64_t alloc_bytes(std::uint64_t bytes, bool constant);

  /// True iff [addr, addr+n) lies inside the allocated global segment.
  /// The kConstBase test also rules out addr+n wrapping around.
  bool in_global(std::uint64_t addr, std::size_t n) const {
    return addr < kConstBase && addr + n <= global_used_;
  }

  /// True iff [addr, addr+n) lies inside the allocated constant segment.
  bool in_const(std::uint64_t addr, std::size_t n) const {
    return addr >= kConstBase && addr - kConstBase <= const_used_ &&
           n <= const_used_ - (addr - kConstBase);
  }

  /// The host bytes behind [addr, addr+n), which must lie inside one
  /// segment's allocations; throws ContractViolation otherwise.
  const std::uint8_t* bytes_at(std::uint64_t addr, std::size_t n) const {
    if (in_global(addr, n)) return global_ + addr;
    if (in_const(addr, n)) return const_.data() + (addr - kConstBase);
    out_of_bounds(addr, n);
  }
  std::uint8_t* bytes_at(std::uint64_t addr, std::size_t n) {
    return const_cast<std::uint8_t*>(std::as_const(*this).bytes_at(addr, n));
  }
  [[noreturn]] static void out_of_bounds(std::uint64_t addr, std::size_t n);

  /// Host mapping of the whole global segment. A moved-from Memory has
  /// none (capacity 0, every access throws) and may only be destroyed or
  /// assigned to.
  std::uint8_t* global_ = nullptr;
  std::vector<std::uint8_t> const_;
  std::uint64_t global_capacity_ = 0;
  std::uint64_t global_used_ = 0;
  /// High-water mark of global_used_: only [0, global_dirty_) can hold
  /// bytes written since the mapping was made.
  std::uint64_t global_dirty_ = 0;
  std::uint64_t const_used_ = 0;
};

}  // namespace harmonia::gpusim
