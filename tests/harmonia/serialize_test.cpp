#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include "btree/btree.hpp"
#include "common/expect.hpp"
#include "common/xxhash64.hpp"
#include "harmonia/tree.hpp"
#include "image_fixtures.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

HarmoniaTree sample_tree(std::uint64_t n = 2000, unsigned fanout = 16) {
  const auto keys = queries::make_tree_keys(n, 1);
  return HarmoniaTree::from_btree(btree::make_tree(keys, fanout));
}

std::string image_bytes(const HarmoniaTree& tree,
                        const TreeSnapshotExtras& extras = {}) {
  std::stringstream buf;
  tree.save(buf, extras);
  return buf.str();
}

/// FNV-1a 64 over `data`, matching the v1/v2 image trailer
/// (re-implemented here so the v1-compat test can seal a hand-built v1
/// image).
std::uint64_t fnv64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Serialize, RoundTripPreservesEverything) {
  const auto tree = sample_tree();
  std::stringstream buf;
  tree.save(buf);
  const auto loaded = HarmoniaTree::load(buf);
  loaded.validate();
  EXPECT_EQ(loaded.fanout(), tree.fanout());
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());
  EXPECT_EQ(loaded.num_keys(), tree.num_keys());
  EXPECT_EQ(loaded.height(), tree.height());
  ASSERT_EQ(loaded.key_region().size(), tree.key_region().size());
  for (std::size_t i = 0; i < tree.key_region().size(); ++i) {
    ASSERT_EQ(loaded.key_region()[i], tree.key_region()[i]);
  }
  for (std::size_t i = 0; i < tree.prefix_sum().size(); ++i) {
    ASSERT_EQ(loaded.prefix_sum()[i], tree.prefix_sum()[i]);
  }
}

TEST(Serialize, LoadedTreeSearchesCorrectly) {
  const auto keys = queries::make_tree_keys(3000, 2);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 32));
  std::stringstream buf;
  tree.save(buf);
  const auto loaded = HarmoniaTree::load(buf);
  for (std::size_t i = 0; i < keys.size(); i += 17) {
    ASSERT_EQ(loaded.search(keys[i]), tree.search(keys[i]));
  }
}

TEST(Serialize, DetectsBitFlip) {
  const auto tree = sample_tree();
  std::stringstream buf;
  tree.save(buf);
  std::string bytes = buf.str();
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the middle of a region
  std::stringstream corrupted(bytes);
  EXPECT_THROW(HarmoniaTree::load(corrupted), ContractViolation);
}

TEST(Serialize, DetectsTruncation) {
  const auto tree = sample_tree();
  std::stringstream buf;
  tree.save(buf);
  std::string bytes = buf.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(HarmoniaTree::load(truncated), ContractViolation);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream junk("definitely not a harmonia image at all, sorry");
  EXPECT_THROW(HarmoniaTree::load(junk), ContractViolation);
}

TEST(Serialize, SingleLeafTree) {
  const auto tree = sample_tree(5, 8);
  std::stringstream buf;
  tree.save(buf);
  const auto loaded = HarmoniaTree::load(buf);
  EXPECT_EQ(loaded.num_keys(), 5u);
  EXPECT_EQ(loaded.height(), 1u);
}

/// Every strict prefix of `bytes` must throw; the whole image loads.
void expect_every_prefix_throws(const std::string& bytes) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream truncated(bytes.substr(0, len));
    EXPECT_THROW(HarmoniaTree::load(truncated), ContractViolation)
        << "prefix of " << len << "/" << bytes.size() << " bytes loaded";
  }
  std::stringstream whole(bytes);
  EXPECT_NO_THROW(HarmoniaTree::load(whole));
}

/// A flip at any byte of `bytes` must throw.
void expect_every_flip_throws(const std::string& bytes) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    std::stringstream corrupted(flipped);
    EXPECT_THROW(HarmoniaTree::load(corrupted), ContractViolation)
        << "flip at byte " << pos << " loaded";
  }
}

// Exhaustive torn-write model: a crash can cut the image at any byte.
// Every strict prefix must throw — across every field boundary (magic,
// version, header counts, each region's length word and payload, the
// extras section, the checksum trailer), load never returns a tree
// built from a partial image.
TEST(Serialize, TruncationAtEveryByteThrows) {
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.8;
  extras.overlay = {{3, 7, 0}, {9, 0, 1}};
  expect_every_prefix_throws(image_bytes(sample_tree(40, 8), extras));
}

// Exhaustive corruption model: a flip anywhere — header, counts, region
// payloads, extras, or the trailer itself — must throw. Count-field
// flips must fail via the header bounds or expected-length checks, not
// a runaway allocation.
TEST(Serialize, BitFlipAtEveryByteThrows) {
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.8;
  extras.overlay = {{3, 7, 0}, {9, 0, 1}};
  expect_every_flip_throws(image_bytes(sample_tree(40, 8), extras));
}

// The same sweeps over a committed v2 image keep the FNV-1a read path
// covered now that save writes v3.
TEST(Serialize, V2FixtureTruncationAtEveryByteThrows) {
  expect_every_prefix_throws(testing_support::v2_sample_image());
}

TEST(Serialize, V2FixtureBitFlipAtEveryByteThrows) {
  expect_every_flip_throws(testing_support::v2_sample_image());
}

TEST(Serialize, FailedLoadNeverTouchesExtrasOut) {
  // load only writes through the extras out-param after the checksum
  // verifies: a caller's defaults survive every failed load.
  const std::string bytes = image_bytes(sample_tree(40, 8));
  std::string torn = bytes.substr(0, bytes.size() - 3);
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.123;
  extras.overlay = {{42, 42, 0}};
  std::stringstream is(torn);
  EXPECT_THROW(HarmoniaTree::load(is, &extras), ContractViolation);
  EXPECT_DOUBLE_EQ(extras.fill_factor, 0.123);
  ASSERT_EQ(extras.overlay.size(), 1u);
  EXPECT_EQ(extras.overlay[0].key, 42u);
}

TEST(Serialize, ExtrasRoundTrip) {
  const auto tree = sample_tree(200, 8);
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.75;
  extras.overlay = {{2, 11, 0}, {5, 0, 1}, {8, 33, 0}};
  std::stringstream buf;
  tree.save(buf, extras);
  TreeSnapshotExtras out;
  const auto loaded = HarmoniaTree::load(buf, &out);
  loaded.validate();
  EXPECT_DOUBLE_EQ(out.fill_factor, 0.75);
  ASSERT_EQ(out.overlay.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.overlay[i].key, extras.overlay[i].key);
    EXPECT_EQ(out.overlay[i].value, extras.overlay[i].value);
    EXPECT_EQ(out.overlay[i].tombstone, extras.overlay[i].tombstone);
  }
}

TEST(Serialize, V1ImageLoadsWithDefaultExtras) {
  // A v1 image is the v2/v3 layout minus the extras section, sealed
  // with FNV-1a. Build one from a fresh image: strip extras (16 bytes
  // for fill + empty-overlay count) and the trailer, set version = 1,
  // reseal. v1 archives written before the extras section must keep
  // loading forever.
  const auto tree = sample_tree(120, 8);
  const std::string v3 = image_bytes(tree);
  ASSERT_GT(v3.size(), 24u);
  std::string v1 = v3.substr(0, v3.size() - 24);  // drop extras + trailer
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof version);  // after the magic
  const std::uint64_t h = fnv64(v1);
  v1.append(reinterpret_cast<const char*>(&h), sizeof h);

  TreeSnapshotExtras extras;
  std::stringstream is(v1);
  const auto loaded = HarmoniaTree::load(is, &extras);
  loaded.validate();
  EXPECT_EQ(loaded.num_keys(), tree.num_keys());
  EXPECT_DOUBLE_EQ(extras.fill_factor, 0.69);  // v1 default
  EXPECT_TRUE(extras.overlay.empty());
  // The exact tree: with the default extras it re-saves to the v3 image.
  EXPECT_EQ(image_bytes(loaded, TreeSnapshotExtras{}), v3);
}

/// The version word, right after the magic.
std::uint32_t version_of(const std::string& image) {
  std::uint32_t version = 0;
  std::memcpy(&version, image.data() + 4, sizeof version);
  return version;
}

// v2 archives load forever: the committed v2 image yields exactly the
// tree and extras it was written from.
TEST(Serialize, V2FixtureLoadsItsTreeAndExtras) {
  const std::string v2 = testing_support::v2_sample_image();
  ASSERT_EQ(version_of(v2), 2u);
  const auto tree = testing_support::v2_sample_tree();
  const auto want = testing_support::v2_sample_extras();
  std::stringstream is(v2);
  TreeSnapshotExtras extras;
  const auto loaded = HarmoniaTree::load(is, &extras);
  EXPECT_EQ(loaded.fanout(), tree.fanout());
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());
  EXPECT_EQ(loaded.first_leaf_index(), tree.first_leaf_index());
  EXPECT_EQ(loaded.num_keys(), tree.num_keys());
  ASSERT_EQ(loaded.height(), tree.height());
  for (unsigned level = 0; level < tree.height(); ++level) {
    EXPECT_EQ(loaded.level_start(level), tree.level_start(level));
  }
  EXPECT_TRUE(std::ranges::equal(loaded.key_region(), tree.key_region()));
  EXPECT_TRUE(std::ranges::equal(loaded.prefix_sum(), tree.prefix_sum()));
  EXPECT_TRUE(std::ranges::equal(loaded.value_region(), tree.value_region()));
  EXPECT_DOUBLE_EQ(extras.fill_factor, want.fill_factor);
  ASSERT_EQ(extras.overlay.size(), want.overlay.size());
  for (std::size_t i = 0; i < want.overlay.size(); ++i) {
    EXPECT_EQ(extras.overlay[i].key, want.overlay[i].key);
    EXPECT_EQ(extras.overlay[i].value, want.overlay[i].value);
    EXPECT_EQ(extras.overlay[i].tombstone, want.overlay[i].tombstone);
  }
}

// save writes only v3, and v3 is the v2 layout with a new version word
// and a new trailer: a loaded v2 image re-saves to the same length and
// the same bytes between the two, and equals a fresh save of its tree.
TEST(Serialize, V2FixtureResavesAsV3) {
  const std::string v2 = testing_support::v2_sample_image();
  std::stringstream is(v2);
  TreeSnapshotExtras extras;
  const auto loaded = HarmoniaTree::load(is, &extras);
  const std::string v3 = image_bytes(loaded, extras);
  EXPECT_EQ(version_of(v3), 3u);
  ASSERT_EQ(v3.size(), v2.size());
  EXPECT_EQ(v3.substr(0, 4), v2.substr(0, 4));
  EXPECT_EQ(v3.substr(8, v3.size() - 16), v2.substr(8, v2.size() - 16));
  EXPECT_NE(v3.substr(v3.size() - 8), v2.substr(v2.size() - 8));
  EXPECT_EQ(v3, image_bytes(testing_support::v2_sample_tree(),
                            testing_support::v2_sample_extras()));
}

TEST(Serialize, UnknownVersionsThrow) {
  const std::string image = image_bytes(sample_tree(60, 8));
  for (const std::uint32_t version : {0u, 4u, 0xffffffffu}) {
    std::string bad = image;
    std::memcpy(bad.data() + 4, &version, sizeof version);
    std::stringstream is(bad);
    EXPECT_THROW(HarmoniaTree::load(is), ContractViolation) << "version " << version;
  }
}

/// A sealed v3 image of one leaf holding keys 1 and 2, at `fanout`.
std::string single_leaf_image(unsigned fanout) {
  std::string image;
  Xxh64 h;
  const auto put = [&](const auto& v) {
    image.append(reinterpret_cast<const char*>(&v), sizeof v);
    h.update(&v, sizeof v);
  };
  const std::uint64_t kpn = fanout - 1;
  put(std::uint32_t{0x484D5254});  // magic "HMRT"
  put(std::uint32_t{3});           // format version
  put(fanout);
  put(std::uint32_t{1});  // num_nodes
  put(std::uint32_t{0});  // first_leaf
  put(std::uint64_t{2});  // num_keys
  put(std::uint64_t{1});  // level_start
  put(std::uint32_t{0});
  put(kpn);  // key region
  for (std::uint64_t s = 0; s < kpn; ++s) put(s < 2 ? Key{s + 1} : kPadKey);
  put(std::uint64_t{2});  // prefix sums: a leaf's is num_nodes
  put(std::uint32_t{1});
  put(std::uint32_t{1});
  put(kpn);  // value region
  for (std::uint64_t s = 0; s < kpn; ++s) put(Value{s < 2 ? 10 * (s + 1) : 0});
  put(0.69);              // extras: fill factor
  put(std::uint64_t{0});  // no overlay
  const std::uint64_t trailer = h.digest();
  image.append(reinterpret_cast<const char*>(&trailer), sizeof trailer);
  return image;
}

// Every writer (build, the batch updater's rebuild, BTree) needs a
// fanout of at least 4. A fanout-3 image used to load and then throw at
// the first batch that split a leaf, so load rejects it up front.
TEST(Serialize, RejectsFanoutNoWriterProduces) {
  std::stringstream ok(single_leaf_image(4));
  EXPECT_EQ(HarmoniaTree::load(ok).search(2).value(), 20u);
  std::stringstream bad(single_leaf_image(3));
  EXPECT_THROW(HarmoniaTree::load(bad), ContractViolation);
}

TEST(Serialize, RejectsMalformedExtras) {
  const auto tree = sample_tree(60, 8);
  {
    TreeSnapshotExtras bad;
    bad.fill_factor = 1.5;  // outside (0, 1]
    std::stringstream buf;
    tree.save(buf, bad);
    EXPECT_THROW(HarmoniaTree::load(buf), ContractViolation);
  }
  {
    TreeSnapshotExtras bad;
    bad.overlay = {{9, 1, 0}, {4, 1, 0}};  // keys not ascending
    std::stringstream buf;
    tree.save(buf, bad);
    EXPECT_THROW(HarmoniaTree::load(buf), ContractViolation);
  }
  {
    TreeSnapshotExtras bad;
    bad.overlay = {{4, 1, 2}};  // tombstone flag out of range
    std::stringstream buf;
    tree.save(buf, bad);
    EXPECT_THROW(HarmoniaTree::load(buf), ContractViolation);
  }
  {
    TreeSnapshotExtras bad;
    bad.overlay = {{kPadKey, 1, 0}};  // pad key can never be overlaid
    std::stringstream buf;
    tree.save(buf, bad);
    EXPECT_THROW(HarmoniaTree::load(buf), ContractViolation);
  }
}

}  // namespace
}  // namespace harmonia
