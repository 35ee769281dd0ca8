// Checkpoint-directory manifest: a tiny, atomically replaced file that
// names the current snapshot + WAL generation. Layout of a checkpoint
// directory:
//
//   MANIFEST            current generation pointer (this file)
//   snapshot-000012     ClustererState snapshot for generation 12
//   wal-000012          WAL with the steps applied after snapshot 12
//   outcome-000012      clusterings of those steps (a recovery hint; see
//                       durable_clusterer.h)
//   snapshot-000011 ... older generations kept as fallback
//
// Generation 1, the one a fresh store starts, has neither a snapshot nor
// a MANIFEST: its base is the empty state, which recovery rebuilds from
// the ForgettingParams, so a fresh store holds only wal-000001 until its
// first checkpoint.
//
// The manifest is written with AtomicWriteFile, so it always names a
// generation whose snapshot was already durably written. If it is missing
// or corrupt, recovery falls back to scanning the directory for snapshot
// files, newest generation first, and to generation 1 last.

#ifndef NIDC_STORE_MANIFEST_H_
#define NIDC_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nidc/util/env.h"

namespace nidc {

/// The generation a fresh store starts, whose base state is implicit.
constexpr uint64_t kFirstGeneration = 1;

struct Manifest {
  uint64_t generation = 0;
  std::string snapshot_file;  // file name within the checkpoint directory
  std::string wal_file;
};

/// Canonical per-generation file names ("snapshot-000012", "wal-000012",
/// "outcome-000012").
std::string SnapshotFileName(uint64_t generation);
std::string WalFileName(uint64_t generation);
std::string OutcomeFileName(uint64_t generation);

/// Parses the generation number out of a snapshot file name; returns
/// false when `name` is not a snapshot file.
bool ParseSnapshotFileName(const std::string& name, uint64_t* generation);

/// Serializes / parses the manifest text representation.
std::string SerializeManifest(const Manifest& manifest);
Result<Manifest> ParseManifest(const std::string& text);

/// Atomically replaces `dir`/MANIFEST.
Status WriteManifest(Env* env, const std::string& dir,
                     const Manifest& manifest);

/// Reads `dir`/MANIFEST. IOError when unreadable, InvalidArgument when
/// damaged — callers fall back to ListSnapshotGenerations in both cases.
Result<Manifest> ReadManifest(Env* env, const std::string& dir);

/// Generations with a snapshot file present in `dir`, newest first.
Result<std::vector<uint64_t>> ListSnapshotGenerations(Env* env,
                                                      const std::string& dir);

/// Generations stored in `dir`, newest first: those with a snapshot file,
/// plus kFirstGeneration whenever its WAL exists, since its base needs no
/// snapshot.
Result<std::vector<uint64_t>> ListStoredGenerations(Env* env,
                                                    const std::string& dir);

/// Candidate generations to try recovering from, best first: the
/// manifest's generation leads (it is only updated after its snapshot is
/// durable), then every other stored generation in descending order, so
/// kFirstGeneration comes last. DurableClusterer's one recovery loop,
/// which leaders (Open) and followers (OpenFollower) share, walks it.
std::vector<uint64_t> ListRecoveryCandidates(Env* env,
                                             const std::string& dir);

}  // namespace nidc

#endif  // NIDC_STORE_MANIFEST_H_
