#include "hbtree/layout.hpp"

#include <gtest/gtest.h>

#include "hbtree/index.hpp"
#include "queries/workload.hpp"

namespace harmonia::hbtree {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 256 << 20;
  return spec;
}

std::uint32_t child_ref(const gpusim::Device& dev, const HBTreeDeviceImage& img,
                        std::uint32_t node, unsigned c) {
  return dev.memory().read<std::uint32_t>(img.child_ref_addr(node, c));
}

/// Reads every record of `img` back and compares it with the tree it was
/// written from: shape, key slots (pads included), child refs
/// prefix_sum[n] + c then kNoChild pads, and the leaf value region.
void expect_image_of(const gpusim::Device& dev, const HBTreeDeviceImage& img,
                     const HarmoniaTree& tree) {
  ASSERT_EQ(img.fanout, tree.fanout());
  ASSERT_EQ(img.height, tree.height());
  ASSERT_EQ(img.num_nodes, tree.num_nodes());
  ASSERT_EQ(img.first_leaf, tree.first_leaf_index());
  const auto& mem = dev.memory();
  for (std::uint32_t n = 0; n < tree.num_nodes(); ++n) {
    for (unsigned s = 0; s < tree.keys_per_node(); ++s) {
      ASSERT_EQ(mem.read<Key>(img.node_key_addr(n, s)), tree.node_keys(n)[s])
          << "node " << n << " slot " << s;
    }
    for (unsigned c = 0; c < img.fanout; ++c) {
      const std::uint32_t want =
          c < tree.child_count(n) ? tree.prefix_sum()[n] + c : kNoChild;
      ASSERT_EQ(child_ref(dev, img, n, c), want) << "node " << n << " child " << c;
    }
  }
  for (std::uint32_t n = tree.first_leaf_index(); n < tree.num_nodes(); ++n) {
    for (unsigned s = 0; s < tree.keys_per_node(); ++s) {
      ASSERT_EQ(mem.read<Value>(img.value_addr(n, s)),
                tree.value_region()[tree.value_slot(n, s)]);
    }
  }
}

TEST(HBTreeImage, ChildRefsAreBfsIndices) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 8);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 8));
  const auto img = HBTreeDeviceImage::upload(dev, tree);
  // Internal nodes' children, read in BFS order, are exactly the nodes
  // 1, 2, ..., num_nodes - 1: each record's refs are consecutive and pick
  // up where the previous record's stopped.
  ASSERT_FALSE(tree.is_leaf(0));
  std::uint32_t expected = 1;
  for (std::uint32_t n = 0; n < tree.first_leaf_index(); ++n) {
    for (unsigned c = 0; c < img.fanout; ++c) {
      const std::uint32_t ref = child_ref(dev, img, n, c);
      if (ref == kNoChild) break;
      EXPECT_EQ(ref, expected++);
    }
  }
  EXPECT_EQ(expected, tree.num_nodes());
}

TEST(HBTreeImage, LeavesHaveNoChildren) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(500, 8);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 8));
  const auto img = HBTreeDeviceImage::upload(dev, tree);
  for (std::uint32_t n = img.first_leaf; n < img.num_nodes; ++n) {
    for (unsigned c = 0; c < img.fanout; ++c) EXPECT_EQ(child_ref(dev, img, n, c), kNoChild);
  }
}

// Every record reads back as the tree it was written from, across
// fanouts and bulk-load fills, also after inserts and erases changed the
// pointer tree (leaf splits and merges) before the upload.
TEST(HBTreeImage, NodeRecordsRoundTrip) {
  const auto keys = queries::make_tree_keys(1200, 3);
  for (const unsigned fanout : {4u, 16u, 33u, 128u}) {
    for (const double fill : {0.5, 1.0}) {
      for (const bool churn : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "fanout " << fanout << " fill " << fill
                                          << " churn " << churn);
        btree::BTree bt = btree::make_tree(keys, fanout, fill);
        if (churn) {
          for (const Key k : queries::make_missing_keys(keys, 400, 4)) bt.insert(k, k + 1);
          for (std::size_t i = 0; i < keys.size(); i += 3) ASSERT_TRUE(bt.erase(keys[i]));
          bt.validate();
        }
        gpusim::Device dev(test_spec());
        const auto tree = HarmoniaTree::from_btree(bt);
        const auto img = HBTreeDeviceImage::upload(dev, tree);
        EXPECT_EQ(img.height, bt.height());
        expect_image_of(dev, img, tree);
      }
    }
  }
}

// The index re-flattens its pointer tree after every batch update: the
// re-uploaded image is the image of the updated tree.
TEST(HBTreeImage, UpdateBatchReuploadsTheUpdatedTree) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 3);
  std::vector<btree::Entry> entries;
  for (const Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  auto index = HBTreeIndex::build(dev, entries, 16);
  queries::BatchSpec spec;
  spec.size = 1000;
  spec.insert_fraction = 0.3;
  spec.delete_fraction = 0.2;
  spec.seed = 5;
  index.update_batch(queries::make_update_batch(keys, spec));
  expect_image_of(dev, index.image(), HarmoniaTree::from_btree(index.tree()));
}

TEST(HBTreeImage, NodeRecordsAreLarge) {
  // §3.1: "the size of a node is about 1KB for a 64-fanout tree" — the
  // baseline's per-node footprint dwarfs Harmonia's prefix-sum entry.
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(5000, 4);
  const auto img =
      HBTreeDeviceImage::upload(dev, HarmoniaTree::from_btree(btree::make_tree(keys, 64)));
  EXPECT_GE(img.node_stride, 63 * 8 + 64 * 4);
  EXPECT_LE(img.node_stride, 1024u);
}

TEST(HBTreeImage, NothingInConstantMemory) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(500, 5);
  HBTreeDeviceImage::upload(dev, HarmoniaTree::from_btree(btree::make_tree(keys, 8)));
  EXPECT_EQ(dev.memory().const_used(), 0u);
}

}  // namespace
}  // namespace harmonia::hbtree
