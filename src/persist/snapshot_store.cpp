#include "persist/snapshot_store.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "fault/checksum.hpp"

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

std::string Manifest::encode(const Manifest& m) {
  std::ostringstream body;
  body << "harmonia-shard-manifest v1\n";
  body << "shard " << m.shard << "\n";
  for (const std::uint64_t e : m.snapshots) body << "snapshot " << e << "\n";
  const std::string text = body.str();
  char crc_line[24];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n",
                fault::crc32(text.data(), text.size()));
  return text + crc_line;
}

std::optional<Manifest> Manifest::parse_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  // Split off the final "crc <hex>\n" line and verify it seals the body.
  if (bytes.empty() || bytes.back() != '\n') return std::nullopt;
  const auto line_start = bytes.rfind('\n', bytes.size() - 2);
  const std::size_t crc_pos = line_start == std::string::npos ? 0 : line_start + 1;
  const std::string crc_line = bytes.substr(crc_pos, bytes.size() - crc_pos - 1);
  unsigned long crc = 0;
  if (std::sscanf(crc_line.c_str(), "crc %8lx", &crc) != 1) return std::nullopt;
  const std::string body = bytes.substr(0, crc_pos);
  if (fault::crc32(body.data(), body.size()) != static_cast<std::uint32_t>(crc))
    return std::nullopt;

  Manifest m;
  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line) || line != "harmonia-shard-manifest v1") return std::nullopt;
  if (!std::getline(lines, line) || std::sscanf(line.c_str(), "shard %u", &m.shard) != 1)
    return std::nullopt;
  while (std::getline(lines, line)) {
    std::uint64_t epoch = 0;
    if (std::sscanf(line.c_str(), "snapshot %" SCNu64, &epoch) != 1) return std::nullopt;
    m.snapshots.push_back(epoch);
  }
  return m;
}

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

std::vector<std::uint64_t> SnapshotStore::list(bool* manifest_fallback) const {
  if (manifest_fallback != nullptr) *manifest_fallback = false;
  if (const auto m = Manifest::parse_file(manifest_path())) {
    auto epochs = m->snapshots;
    std::sort(epochs.rbegin(), epochs.rend());
    return epochs;
  }
  // Manifest missing or torn: trust the directory instead.
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (const auto e = epoch_of(entry.path().filename().string())) epochs.push_back(*e);
  }
  if (manifest_fallback != nullptr) *manifest_fallback = !epochs.empty();
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

std::optional<SnapshotStore::Loaded> SnapshotStore::load_newest() const {
  bool fallback = false;
  const auto epochs = list(&fallback);
  unsigned discarded = 0;
  for (const std::uint64_t epoch : epochs) {
    std::ifstream is(path_for(epoch), std::ios::binary);
    if (is.good()) {
      try {
        TreeSnapshotExtras extras;
        HarmoniaTree tree = HarmoniaTree::load(is, &extras);
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(path_for(epoch), ec);
        return Loaded{std::move(tree), std::move(extras), epoch,
                      ec ? 0 : bytes, discarded, fallback};
      } catch (const ContractViolation&) {
        // Torn or corrupted image: fall back to the next-older epoch.
      }
    }
    ++discarded;
  }
  return std::nullopt;
}

void SnapshotStore::prune(std::size_t keep) {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (const auto e = epoch_of(entry.path().filename().string())) epochs.push_back(*e);
  }
  std::sort(epochs.rbegin(), epochs.rend());
  if (epochs.size() <= keep) return;
  // Rewrite the manifest to name only the survivors BEFORE deleting any
  // image: recovery prefers the manifest, so a crash mid-prune must never
  // leave it pinning an image that is already gone. (The converse order —
  // manifest naming survivors while pruned files linger — is harmless:
  // lingering files are ignored or re-pruned next time.)
  if (const auto m = Manifest::parse_file(manifest_path())) {
    write_manifest(m->shard,
                   {epochs.begin(),
                    epochs.begin() + static_cast<std::ptrdiff_t>(keep)});
  }
  for (std::size_t i = keep; i < epochs.size(); ++i) {
    std::filesystem::remove(path_for(epochs[i]), ec);
  }
}

void SnapshotStore::write_manifest(unsigned shard, std::vector<std::uint64_t> snapshots) {
  Manifest m;
  m.shard = shard;
  m.snapshots = std::move(snapshots);
  const std::string bytes = Manifest::encode(m);
  std::ofstream os(manifest_path(), std::ios::binary | std::ios::trunc);
  HARMONIA_CHECK_MSG(os.good(), "cannot open manifest " << manifest_path().string());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();  // a manifest fits the stream buffer: only the flush reaches the file
  HARMONIA_CHECK_MSG(os.good(), "write failure on manifest " << manifest_path().string());
}

}  // namespace harmonia::persist
