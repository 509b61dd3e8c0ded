// SnapshotStore: the newest-valid fallback chain over a directory scan.
// A torn or bit-flipped image must never load; load_newest must walk
// past damaged epochs and land on the newest image that decodes
// cleanly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "common/expect.hpp"
#include "harmonia/tree.hpp"
#include "image_fixtures.hpp"
#include "persist/snapshot_store.hpp"
#include "queries/workload.hpp"
#include "test_dir.hpp"

namespace harmonia::persist {
namespace {

HarmoniaTree sample_tree(std::uint64_t n, std::uint64_t seed) {
  const auto keys = queries::make_tree_keys(n, seed);
  return HarmoniaTree::from_btree(btree::make_tree(keys, 8));
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SnapshotStoreTest, ListIsADirectoryScanNewestFirst) {
  SnapshotStore store(dir_);
  store.write(4, sample_tree(50, 1), {});
  store.write(12, sample_tree(50, 3), {});
  store.write(9, sample_tree(50, 2), {});
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{12, 9, 4}));
}

TEST_F(SnapshotStoreTest, LoadNewestRoundTripsTreeAndExtras) {
  const auto tree = sample_tree(120, 3);
  TreeSnapshotExtras extras;
  extras.fill_factor = 0.77;
  extras.overlay = {{5, 99, 0}, {11, 0, 1}};
  SnapshotStore store(dir_);
  store.write(6, tree, extras);

  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 6u);
  EXPECT_EQ(loaded->discarded, 0u);
  EXPECT_GT(loaded->bytes, 0u);
  EXPECT_DOUBLE_EQ(loaded->extras.fill_factor, 0.77);
  ASSERT_EQ(loaded->extras.overlay.size(), 2u);
  EXPECT_EQ(loaded->extras.overlay[0].key, 5u);
  EXPECT_EQ(loaded->extras.overlay[0].value, 99u);
  EXPECT_EQ(loaded->extras.overlay[1].tombstone, 1);
  EXPECT_EQ(loaded->tree.num_keys(), tree.num_keys());
  loaded->tree.validate();
}

std::uint64_t trailer_of(const std::string& image) {
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, image.data() + image.size() - sizeof trailer, sizeof trailer);
  return trailer;
}

// Formats are frozen once written. The v2 pin sits on the committed v2
// image (the writer now emits v3): its length and FNV-1a trailer are the
// values the v2 writer produced, and it still loads as a snapshot. The
// v3 pin covers the same tree: v3 is v2 with a new version word and an
// XXH64 trailer, so the length is unchanged.
TEST_F(SnapshotStoreTest, ImageLengthAndTrailerArePinned) {
  const auto tree = testing_support::v2_sample_tree();
  const auto extras = testing_support::v2_sample_extras();

  const std::string v2 = testing_support::v2_sample_image();
  ASSERT_EQ(v2.size(), 3218u);
  EXPECT_EQ(trailer_of(v2), 0x2a0d3433c381b0ebull);
  SnapshotStore store(dir_);
  write_file(store.path_for(1), v2);
  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->discarded, 0u);
  EXPECT_EQ(SnapshotStore::encode(loaded->tree, loaded->extras),
            SnapshotStore::encode(tree, extras));

  const std::string v3 = SnapshotStore::encode(tree, extras);
  ASSERT_EQ(v3.size(), 3218u);
  EXPECT_EQ(trailer_of(v3), 0x347645c120dd558bull);
  store.write(2, tree, extras);
  EXPECT_EQ(read_file(store.path_for(2)), v3);
}

// A shard directory written across the format change holds v2 and v3
// images side by side; recovery walks them as one fallback chain.
TEST_F(SnapshotStoreTest, MixedVersionDirectoryRecoversNewestThenFallsBack) {
  SnapshotStore store(dir_);
  write_file(store.path_for(1), testing_support::v2_sample_image());
  const auto newer = sample_tree(90, 2);
  store.write(2, newer, {});

  auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->discarded, 0u);
  EXPECT_EQ(loaded->tree.num_keys(), newer.num_keys());

  const std::string bytes = read_file(store.path_for(2));
  write_file(store.path_for(2), bytes.substr(0, bytes.size() / 2));
  loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->discarded, 1u);
  EXPECT_EQ(loaded->tree.num_keys(), testing_support::v2_sample_tree().num_keys());
  EXPECT_DOUBLE_EQ(loaded->extras.fill_factor, 0.77);
  EXPECT_EQ(loaded->extras.overlay.size(), 2u);
}

// An image write that fails (here: no space left) must throw rather
// than leave a short file behind as if it had finished.
TEST_F(SnapshotStoreTest, ImageWriteFailureThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  SnapshotStore store(dir_);
  std::filesystem::create_symlink("/dev/full", store.path_for(3));
  EXPECT_THROW(store.write(3, sample_tree(40, 1), {}), ContractViolation);
}

TEST_F(SnapshotStoreTest, LoadNewestWalksPastTornImage) {
  SnapshotStore store(dir_);
  store.write(3, sample_tree(80, 1), {});
  store.write(7, sample_tree(90, 2), {});
  // Tear the newest image mid-write.
  const std::string bytes = read_file(store.path_for(7));
  write_file(store.path_for(7), bytes.substr(0, bytes.size() / 3));

  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 3u);
  EXPECT_EQ(loaded->discarded, 1u);
  EXPECT_EQ(loaded->tree.num_keys(), 80u);
}

TEST_F(SnapshotStoreTest, LoadNewestWalksPastEmptyImage) {
  // A crash right after the newest image's file was created leaves an
  // empty `snap-*.img`: the scan lists it, the load discards it.
  SnapshotStore store(dir_);
  store.write(2, sample_tree(60, 1), {});
  write_file(store.path_for(8), "");
  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->discarded, 1u);
}

TEST_F(SnapshotStoreTest, AllImagesTornIsNullopt) {
  SnapshotStore store(dir_);
  store.write(1, sample_tree(60, 1), {});
  store.write(2, sample_tree(60, 2), {});
  for (const std::uint64_t e : {std::uint64_t{1}, std::uint64_t{2}}) {
    const std::string bytes = read_file(store.path_for(e));
    write_file(store.path_for(e), bytes.substr(0, bytes.size() - 5));
  }
  EXPECT_FALSE(store.load_newest().has_value());
}

TEST_F(SnapshotStoreTest, EmptyDirectoryIsNullopt) {
  SnapshotStore store(dir_);
  EXPECT_FALSE(store.load_newest().has_value());
  EXPECT_TRUE(store.list().empty());
}

TEST_F(SnapshotStoreTest, PruneKeepsNewestByDirectoryScan) {
  SnapshotStore store(dir_);
  for (std::uint64_t e = 1; e <= 5; ++e) store.write(e, sample_tree(40, e), {});
  store.prune(2);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(1)));
  EXPECT_FALSE(std::filesystem::exists(store.path_for(2)));
  EXPECT_FALSE(std::filesystem::exists(store.path_for(3)));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(4)));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(5)));
  store.prune(0);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(4)));
  EXPECT_FALSE(std::filesystem::exists(store.path_for(5)));
}

TEST_F(SnapshotStoreTest, CrashMidPruneNeverPinsDeletedSnapshot) {
  // Walk every intermediate on-disk state of prune(keep=2) — one
  // deletion at a time — and require recovery (load_newest) to land on
  // the newest image at each point. This is exactly the set of states a
  // crash at any instant mid-prune can leave behind; the scan lists
  // only files that exist, so none names a deleted snapshot.
  for (int steps = 0; steps <= 3; ++steps) {
    SCOPED_TRACE(::testing::Message() << "crash after step " << steps);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    SnapshotStore store(dir_);
    for (std::uint64_t e = 1; e <= 5; ++e) store.write(e, sample_tree(40 + e, e), {});

    // Replay prune's deletions, stopping after `steps` of them.
    const std::uint64_t victims[] = {3, 2, 1};
    for (int i = 0; i < steps; ++i) std::filesystem::remove(store.path_for(victims[i]));

    EXPECT_EQ(store.list().size(), 5u - static_cast<std::size_t>(steps));
    const auto loaded = store.load_newest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->epoch, 5u);
    EXPECT_EQ(loaded->discarded, 0u);
    EXPECT_EQ(loaded->tree.num_keys(), 45u);
  }
}

TEST_F(SnapshotStoreTest, ForeignFilesAreIgnored) {
  SnapshotStore store(dir_);
  store.write(3, sample_tree(40, 1), {});
  write_file(dir_ / "update.log", "not a snapshot");
  write_file(dir_ / "snap-junk.img", "not a snapshot either");
  const auto epochs = store.list();
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{3}));
  store.prune(1);  // must not trip over the foreign names
  EXPECT_TRUE(std::filesystem::exists(dir_ / "update.log"));
}

}  // namespace
}  // namespace harmonia::persist
