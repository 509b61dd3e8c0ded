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
// A small text MANIFEST (CRC32-sealed) names the retained snapshots so
// recovery doesn't have to trust a directory listing; when the manifest
// itself is torn (it is rewritten on every snapshot) recovery falls
// back to scanning the directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "harmonia/tree.hpp"

namespace harmonia::persist {

struct Manifest {
  unsigned shard = 0;
  /// Retained snapshot epochs, newest first.
  std::vector<std::uint64_t> snapshots;

  /// Text encoding, sealed with a trailing "crc <hex>" line.
  static std::string encode(const Manifest& m);
  /// nullopt when the file is missing, unparsable, or fails its CRC.
  static std::optional<Manifest> parse_file(const std::filesystem::path& path);
};

class SnapshotStore {
 public:
  explicit SnapshotStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path manifest_path() const { return dir_ / "MANIFEST"; }
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

  /// Snapshot epochs on disk, newest first. Prefers the manifest; falls
  /// back to a directory scan when it is missing or torn (sets
  /// *manifest_fallback when provided).
  std::vector<std::uint64_t> list(bool* manifest_fallback = nullptr) const;

  struct Loaded {
    HarmoniaTree tree;
    TreeSnapshotExtras extras;
    std::uint64_t epoch = 0;
    std::uint64_t bytes = 0;
    /// Newer snapshots discarded because they failed to decode.
    unsigned discarded = 0;
    bool manifest_fallback = false;
  };

  /// Newest snapshot that decodes cleanly, walking the fallback chain.
  /// nullopt when no valid snapshot exists at all.
  std::optional<Loaded> load_newest() const;

  /// Deletes the oldest snapshots until at most `keep` remain (by
  /// directory scan, so stale generations are pruned too). When a valid
  /// manifest exists it is rewritten to name only the survivors *before*
  /// any file is deleted: a crash mid-prune can leave extra files on
  /// disk, never a manifest pinning a deleted snapshot.
  void prune(std::size_t keep);

  /// Rewrites the manifest to name the given epochs (newest first).
  void write_manifest(unsigned shard, std::vector<std::uint64_t> snapshots);

 private:
  std::filesystem::path dir_;
};

}  // namespace harmonia::persist
