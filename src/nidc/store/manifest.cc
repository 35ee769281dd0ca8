#include "nidc/store/manifest.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "nidc/util/string_util.h"

namespace nidc {

namespace {
constexpr char kManifestName[] = "MANIFEST";
constexpr char kSnapshotPrefix[] = "snapshot-";
}  // namespace

std::string SnapshotFileName(uint64_t generation) {
  return StringPrintf("snapshot-%06llu",
                      static_cast<unsigned long long>(generation));
}

std::string WalFileName(uint64_t generation) {
  return StringPrintf("wal-%06llu",
                      static_cast<unsigned long long>(generation));
}

std::string OutcomeFileName(uint64_t generation) {
  return StringPrintf("outcome-%06llu",
                      static_cast<unsigned long long>(generation));
}

bool ParseSnapshotFileName(const std::string& name, uint64_t* generation) {
  if (!StartsWith(name, kSnapshotPrefix)) return false;
  const std::string digits = name.substr(sizeof(kSnapshotPrefix) - 1);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *generation = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

std::string SerializeManifest(const Manifest& manifest) {
  std::ostringstream out;
  out << "nidc-manifest v1\n";
  out << "generation " << manifest.generation << '\n';
  out << "snapshot " << manifest.snapshot_file << '\n';
  out << "wal " << manifest.wal_file << '\n';
  return out.str();
}

Result<Manifest> ParseManifest(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  std::string version;
  if (!(in >> word >> version) || word != "nidc-manifest" ||
      version != "v1") {
    return Status::InvalidArgument("not a nidc-manifest v1 file");
  }
  Manifest manifest;
  if (!(in >> word >> manifest.generation) || word != "generation") {
    return Status::InvalidArgument("malformed generation line");
  }
  if (!(in >> word >> manifest.snapshot_file) || word != "snapshot") {
    return Status::InvalidArgument("malformed snapshot line");
  }
  if (!(in >> word >> manifest.wal_file) || word != "wal") {
    return Status::InvalidArgument("malformed wal line");
  }
  return manifest;
}

Status WriteManifest(Env* env, const std::string& dir,
                     const Manifest& manifest) {
  return AtomicWriteFile(env, dir + "/" + kManifestName,
                         SerializeManifest(manifest));
}

Result<Manifest> ReadManifest(Env* env, const std::string& dir) {
  auto text = env->ReadFileToString(dir + "/" + kManifestName);
  if (!text.ok()) return text.status();
  return ParseManifest(*text);
}

Result<std::vector<uint64_t>> ListSnapshotGenerations(
    Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> generations;
  for (const std::string& name : *names) {
    uint64_t generation = 0;
    if (ParseSnapshotFileName(name, &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.rbegin(), generations.rend());
  return generations;
}

Result<std::vector<uint64_t>> ListStoredGenerations(Env* env,
                                                    const std::string& dir) {
  Result<std::vector<uint64_t>> generations =
      ListSnapshotGenerations(env, dir);
  if (generations.ok() &&
      (generations->empty() || generations->back() != kFirstGeneration) &&
      env->FileExists(dir + "/" + WalFileName(kFirstGeneration))) {
    generations->push_back(kFirstGeneration);
  }
  return generations;
}

std::vector<uint64_t> ListRecoveryCandidates(Env* env,
                                             const std::string& dir) {
  std::vector<uint64_t> candidates;
  if (Result<Manifest> manifest = ReadManifest(env, dir); manifest.ok()) {
    candidates.push_back(manifest->generation);
  }
  if (Result<std::vector<uint64_t>> scanned = ListStoredGenerations(env, dir);
      scanned.ok()) {
    for (uint64_t generation : *scanned) {
      if (std::find(candidates.begin(), candidates.end(), generation) ==
          candidates.end()) {
        candidates.push_back(generation);
      }
    }
  }
  // Keep the manifest's generation first, but order the rest descending.
  if (candidates.size() > 1) {
    std::sort(candidates.begin() + 1, candidates.end(),
              std::greater<uint64_t>());
  }
  return candidates;
}

}  // namespace nidc
