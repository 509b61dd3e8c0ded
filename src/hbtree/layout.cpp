#include "hbtree/layout.hpp"

#include <vector>

namespace harmonia::hbtree {

HBTreeDeviceImage HBTreeDeviceImage::upload(gpusim::Device& device, const HarmoniaTree& tree) {
  HBTreeDeviceImage img;
  img.fanout = tree.fanout();
  img.height = tree.height();
  img.num_nodes = tree.num_nodes();
  img.first_leaf = tree.first_leaf_index();
  const unsigned kpn = tree.keys_per_node();

  // keys then child refs, padded to 8 B so records stay aligned.
  img.node_stride = (static_cast<std::uint64_t>(kpn) * sizeof(Key) +
                     static_cast<std::uint64_t>(img.fanout) * sizeof(std::uint32_t) + 7) /
                    8 * 8;

  auto& mem = device.memory();
  img.nodes = mem.malloc<std::uint8_t>(img.node_stride * img.num_nodes);
  std::vector<std::uint32_t> children(img.fanout);
  for (std::uint32_t n = 0; n < img.num_nodes; ++n) {
    const auto keys = tree.node_keys(n);
    mem.write_bytes(img.nodes.addr + n * img.node_stride, keys.data(), keys.size_bytes());
    const std::uint32_t count = tree.child_count(n);  // 0 on leaves
    for (std::uint32_t c = 0; c < img.fanout; ++c)
      children[c] = c < count ? tree.prefix_sum()[n] + c : kNoChild;
    mem.write_bytes(img.nodes.addr + n * img.node_stride + kpn * sizeof(Key),
                    children.data(), children.size() * sizeof(std::uint32_t));
  }
  if (!tree.value_region().empty()) {
    img.value_region = mem.malloc<Value>(tree.value_region().size());
    mem.copy_to_device(img.value_region, tree.value_region());
  }
  return img;
}

}  // namespace harmonia::hbtree
