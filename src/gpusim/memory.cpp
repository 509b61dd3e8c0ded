#include "gpusim/memory.hpp"

namespace harmonia::gpusim {

namespace {
constexpr std::uint64_t kAlign = 256;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Memory::Memory(std::uint64_t global_bytes, std::uint64_t const_bytes)
    : const_(const_bytes), global_capacity_(global_bytes) {
  // Address 0 acts as the null device pointer: burn the first alignment unit.
  global_used_ = kAlign;
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
  global_used_ = base + bytes;
  if (global_.size() < global_used_) global_.resize(global_used_);
  return base;
}

void Memory::free_all() {
  global_used_ = kAlign;
  const_used_ = 0;
  global_.clear();
  global_.shrink_to_fit();
  global_.resize(kAlign);
}

void Memory::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off <= const_.size() && n <= const_.size() - off,
                       "constant read out of bounds at " << off);
    std::memcpy(out, const_.data() + off, n);
  } else {
    HARMONIA_CHECK_MSG(addr <= global_.size() && n <= global_.size() - addr,
                       "global read out of bounds at " << addr);
    std::memcpy(out, global_.data() + addr, n);
  }
}

void Memory::write_bytes(std::uint64_t addr, const void* in, std::size_t n) {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off <= const_.size() && n <= const_.size() - off,
                       "constant write out of bounds at " << off);
    std::memcpy(const_.data() + off, in, n);
  } else {
    HARMONIA_CHECK_MSG(addr <= global_.size() && n <= global_.size() - addr,
                       "global write out of bounds at " << addr);
    std::memcpy(global_.data() + addr, in, n);
  }
}

}  // namespace harmonia::gpusim
