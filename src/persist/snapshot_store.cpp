#include "persist/snapshot_store.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"

namespace harmonia::persist {

namespace {

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".img";

std::string snapshot_name(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%012" PRIu64 "%s", kSnapshotPrefix, epoch, kSnapshotSuffix);
  return buf;
}

/// Parses "snap-<epoch>.img"; nullopt for anything else.
std::optional<std::uint64_t> epoch_of(const std::string& name) {
  const std::string prefix = kSnapshotPrefix;
  const std::string suffix = kSnapshotSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return std::nullopt;
  const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::uint64_t epoch = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

}  // namespace

std::filesystem::path SnapshotStore::path_for(std::uint64_t epoch) const {
  return dir_ / snapshot_name(epoch);
}

std::string SnapshotStore::encode(const HarmoniaTree& tree, const TreeSnapshotExtras& extras) {
  std::ostringstream os(std::ios::binary);
  tree.save(os, extras);
  return os.str();
}

void SnapshotStore::write(std::uint64_t epoch, const HarmoniaTree& tree,
                          const TreeSnapshotExtras& extras) {
  std::filesystem::create_directories(dir_);
  std::ofstream os(path_for(epoch), std::ios::binary | std::ios::trunc);
  HARMONIA_CHECK_MSG(os.good(), "cannot open snapshot " << path_for(epoch).string());
  tree.save(os, extras);
  os.flush();
  HARMONIA_CHECK_MSG(os.good(), "write failure on snapshot " << path_for(epoch).string());
}

std::vector<std::uint64_t> SnapshotStore::list() const {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (const auto e = epoch_of(entry.path().filename().string())) epochs.push_back(*e);
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

std::optional<SnapshotStore::Loaded> SnapshotStore::load_newest() const {
  unsigned discarded = 0;
  for (const std::uint64_t epoch : list()) {
    std::ifstream is(path_for(epoch), std::ios::binary);
    if (is.good()) {
      try {
        TreeSnapshotExtras extras;
        HarmoniaTree tree = HarmoniaTree::load(is, &extras);
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(path_for(epoch), ec);
        return Loaded{std::move(tree), std::move(extras), epoch, ec ? 0 : bytes, discarded};
      } catch (const ContractViolation&) {
        // Torn or corrupted image: fall back to the next-older epoch.
      }
    }
    ++discarded;
  }
  return std::nullopt;
}

void SnapshotStore::prune(std::size_t keep) {
  const auto epochs = list();
  std::error_code ec;
  for (std::size_t i = keep; i < epochs.size(); ++i) {
    std::filesystem::remove(path_for(epochs[i]), ec);
  }
}

}  // namespace harmonia::persist
