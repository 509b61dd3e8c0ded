#include "harmonia/device_image.hpp"

#include "common/expect.hpp"

namespace harmonia {

HarmoniaDeviceImage HarmoniaDeviceImage::upload(gpusim::Device& device,
                                                const HarmoniaTree& tree,
                                                std::uint64_t const_budget_bytes) {
  HarmoniaDeviceImage img;
  img.fanout = tree.fanout();
  img.height = tree.height();
  img.num_nodes = tree.num_nodes();
  img.first_leaf = tree.first_leaf_index();
  img.num_keys = tree.num_keys();

  auto& mem = device.memory();

  img.key_region = mem.malloc<Key>(tree.key_region().size());
  mem.copy_to_device(img.key_region, tree.key_region());

  if (!tree.value_region().empty()) {
    img.value_region = mem.malloc<Value>(tree.value_region().size());
    mem.copy_to_device(img.value_region, tree.value_region());
  }

  img.ps_global = mem.malloc<std::uint32_t>(tree.prefix_sum().size());
  mem.copy_to_device(img.ps_global, tree.prefix_sum());

  // Constant placement: as many complete top levels of the prefix-sum
  // array as fit the budget (and the device's constant segment).
  const std::uint64_t budget =
      std::min<std::uint64_t>(const_budget_bytes,
                              mem.const_capacity() - mem.const_used());
  std::uint32_t const_count = 0;
  for (unsigned level = 0; level + 1 <= tree.height(); ++level) {
    const std::uint32_t end = level + 1 < tree.height()
                                  ? tree.level_start(level + 1)
                                  : tree.num_nodes();
    if (static_cast<std::uint64_t>(end) * sizeof(std::uint32_t) > budget) break;
    const_count = end;
  }
  if (const_count > 0) {
    img.ps_const = mem.const_malloc<std::uint32_t>(const_count);
    mem.copy_to_device(img.ps_const, tree.prefix_sum().subspan(0, const_count));
    img.ps_const_count = const_count;
  }
  return img;
}

TreeView HarmoniaDeviceImage::view(const gpusim::Memory& memory) const {
  if (num_nodes == 0) return TreeView{};
  const std::uint64_t kpn = keys_per_node();
  return {height, keys_per_node(), num_nodes, first_leaf,
          memory.view(key_region, num_nodes * kpn), memory.view(ps_global, num_nodes + 1ULL),
          memory.view(value_region, (num_nodes - first_leaf) * kpn)};
}

}  // namespace harmonia
