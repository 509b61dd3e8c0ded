#include "gpusim/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <utility>

namespace harmonia::gpusim {

namespace {
constexpr std::uint64_t kAlign = 256;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Memory::Memory(std::uint64_t global_bytes, std::uint64_t const_bytes)
    : const_(const_bytes), global_capacity_(global_bytes) {
  // MAP_NORESERVE: the reservation is address space only; the host commits
  // (zeroed) pages as they are first touched. The mapping is whole pages,
  // so the null unit below is addressable even on a tiny segment.
  void* base = ::mmap(nullptr, global_capacity_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "cannot reserve simulated global memory");
  }
  global_ = static_cast<std::uint8_t*>(base);
  // Address 0 acts as the null device pointer: burn the first alignment
  // unit. It is addressable, so count it as possibly written.
  global_used_ = kAlign;
  global_dirty_ = kAlign;
}

Memory::~Memory() {
  if (global_ != nullptr) ::munmap(global_, global_capacity_);
}

Memory::Memory(Memory&& other) noexcept
    : global_(std::exchange(other.global_, nullptr)),
      const_(std::move(other.const_)),
      global_capacity_(std::exchange(other.global_capacity_, 0)),
      global_used_(std::exchange(other.global_used_, 0)),
      global_dirty_(std::exchange(other.global_dirty_, 0)),
      const_used_(std::exchange(other.const_used_, 0)) {
  other.const_.clear();
}

Memory& Memory::operator=(Memory&& other) noexcept {
  if (this != &other) {
    if (global_ != nullptr) ::munmap(global_, global_capacity_);
    global_ = std::exchange(other.global_, nullptr);
    const_ = std::move(other.const_);
    other.const_.clear();
    global_capacity_ = std::exchange(other.global_capacity_, 0);
    global_used_ = std::exchange(other.global_used_, 0);
    global_dirty_ = std::exchange(other.global_dirty_, 0);
    const_used_ = std::exchange(other.const_used_, 0);
  }
  return *this;
}

std::uint64_t Memory::alloc_bytes(std::uint64_t bytes, bool constant) {
  HARMONIA_CHECK(bytes > 0);
  if (constant) {
    const std::uint64_t base = round_up(const_used_, kAlign);
    HARMONIA_CHECK_MSG(base + bytes <= const_.size(),
                       "constant segment overflow: need " << bytes << " B at offset " << base
                                                          << ", capacity " << const_.size());
    const_used_ = base + bytes;
    return kConstBase + base;
  }
  const std::uint64_t base = round_up(global_used_, kAlign);
  HARMONIA_CHECK_MSG(base + bytes <= global_capacity_,
                     "global segment overflow: need " << bytes << " B at offset " << base
                                                      << ", capacity " << global_capacity_);
  // Everything past the previous allocation reads as zero, alignment gap
  // included. Bytes beyond the high-water mark were never written.
  const std::uint64_t end = base + bytes;
  if (global_used_ < global_dirty_) {
    std::memset(global_ + global_used_, 0,
                static_cast<std::size_t>(std::min(end, global_dirty_) - global_used_));
  }
  global_used_ = end;
  global_dirty_ = std::max(global_dirty_, end);
  return base;
}

void Memory::free_all() {
  HARMONIA_CHECK_MSG(global_ != nullptr, "free_all on a moved-from Memory");
  global_used_ = kAlign;
  const_used_ = 0;
  std::memset(global_, 0, kAlign);
}

void Memory::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  const std::uint8_t* src = bytes_at(addr, n);
  if (n != 0) std::memcpy(out, src, n);
}

void Memory::write_bytes(std::uint64_t addr, const void* in, std::size_t n) {
  std::uint8_t* dst = bytes_at(addr, n);
  if (n != 0) std::memcpy(dst, in, n);
}

void Memory::out_of_bounds(std::uint64_t addr, std::size_t n) {
  HARMONIA_CHECK_MSG(false, (is_const_address(addr) ? "constant" : "global")
                                << " access out of bounds: " << n << " B at "
                                << (is_const_address(addr) ? addr - kConstBase : addr));
}

}  // namespace harmonia::gpusim
