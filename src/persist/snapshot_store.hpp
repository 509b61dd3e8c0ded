// SnapshotStore — committed epoch images on disk, newest-valid wins.
//
// A snapshot is one committed epoch's full state: the HarmoniaTree
// image (format v3, XXH64-sealed, carrying the fill target and
// delta-overlay sidecar; v1/v2 images written earlier still load)
// written to `snap-<epoch>.img` inside a per-shard directory.
// Snapshots are written whole-file; a crash mid-write leaves a torn
// image that load() rejects via the tree format's own checksum, which
// is exactly what makes the newest-valid fallback chain safe: recovery
// walks epochs newest-first and discards every image that fails to
// decode, landing on the last snapshot that finished.
//
// The directory is the catalogue: the `snap-*.img` names on disk are
// the retained snapshots, and nothing else records them. Every image
// seals itself, so a name never has to be trusted, only tried.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "harmonia/tree.hpp"

namespace harmonia::persist {

class SnapshotStore {
 public:
  explicit SnapshotStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path path_for(std::uint64_t epoch) const;

  /// The serialized image (what a snapshot file holds) as a string,
  /// for tests and benches; the write paths stream save() into the
  /// file instead.
  static std::string encode(const HarmoniaTree& tree, const TreeSnapshotExtras& extras);

  /// Writes `snap-<epoch>.img` directly, streaming the image into the
  /// file (whole file, flushed). Direct path for tests, benches and the
  /// recovery checkpoint; the serving layer streams through its
  /// crash-aware ShardDurability instead.
  void write(std::uint64_t epoch, const HarmoniaTree& tree, const TreeSnapshotExtras& extras);

  /// Snapshot epochs on disk (a directory scan), newest first.
  std::vector<std::uint64_t> list() const;

  struct Loaded {
    HarmoniaTree tree;
    TreeSnapshotExtras extras;
    std::uint64_t epoch = 0;
    std::uint64_t bytes = 0;
    /// Newer snapshots discarded because they failed to decode.
    unsigned discarded = 0;
  };

  /// Newest snapshot that decodes cleanly, walking the fallback chain.
  /// nullopt when no valid snapshot exists at all.
  std::optional<Loaded> load_newest() const;

  /// Deletes the oldest snapshots until at most `keep` remain.
  void prune(std::size_t keep);

 private:
  std::filesystem::path dir_;
};

}  // namespace harmonia::persist
