// Tree images written by older format versions, committed under
// tests/persist/data/ so every later reader is tested on real archive
// bytes. HARMONIA_TEST_DATA_DIR names that directory.
#pragma once

#include <fstream>
#include <iterator>
#include <string>

#include "btree/btree.hpp"
#include "harmonia/tree.hpp"
#include "queries/workload.hpp"

namespace harmonia::testing_support {

inline std::string v2_sample_path() { return HARMONIA_TEST_DATA_DIR "/v2_sample.img"; }

/// The bytes of v2_sample.img: the v2 writer's image of
/// v2_sample_tree() with v2_sample_extras() (3218 bytes).
inline std::string v2_sample_image() {
  std::ifstream is(v2_sample_path(), std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// 120 keys (seed 3) at fanout 8.
inline HarmoniaTree v2_sample_tree() {
  return HarmoniaTree::from_btree(btree::make_tree(queries::make_tree_keys(120, 3), 8));
}

inline TreeSnapshotExtras v2_sample_extras() {
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.77;
  extras.overlay = {{5, 99, 0}, {11, 0, 1}};
  return extras;
}

}  // namespace harmonia::testing_support
