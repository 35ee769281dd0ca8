// Persistence for the on-line clusterer: snapshot the incremental state
// (clock, active set, last clustering) to a text file and restore it after
// a process restart, without replaying the stream. The corpus itself is
// persisted separately (corpus_io.h); a snapshot is only valid against the
// same corpus loaded in the same order (document ids and term ids must
// match).
//
// Format v2 additionally embeds the model's ExactModelState (raw weights,
// term sums and decay scale as hex floats) and the step counter, so a
// restored clusterer continues *bit-identically* — the property the
// store/ durability layer's crash-recovery guarantee is built on. v1
// snapshots (no exact section) still load; they restore statistics by
// rebuilding dw = λ^(now − T_i) from acquisition times, which is exact up
// to last-bit rounding.
//
// SaveState writes through the atomic write-temp + fsync + rename helper:
// a crash mid-save can never destroy the previous good snapshot.

#ifndef NIDC_CORE_STATE_IO_H_
#define NIDC_CORE_STATE_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/util/env.h"

namespace nidc {

/// Everything needed to resume an IncrementalClusterer.
struct ClustererState {
  ForgettingParams params;
  DayTime now = 0.0;
  std::vector<DocId> active_docs;
  std::optional<ClusteringResult> last_result;
  /// Steps applied so far (offsets the per-step random-seed stream).
  uint64_t step_count = 0;
  /// Bit-exact numeric state; present in v2 snapshots.
  std::optional<ExactModelState> exact;
};

/// The clustering section of a snapshot: "clusters <n>", one "cluster"
/// id list per cluster, then the "outliers", "g" and "iterations" lines.
/// It carries memberships, outliers, G, the sweep count and the
/// convergence flag; representatives, average similarities and cluster
/// ids are derived or telemetry state and are not part of it. The
/// durability layer's per-step outcome log (store/durable_clusterer.h)
/// stores clusterings in the same form.
void AppendResultSection(const ClusteringResult& result, std::string* out);
Result<ClusteringResult> ParseResultSection(std::string_view text);

/// Captures the clusterer's current state (always includes the exact
/// section).
ClustererState CaptureState(const IncrementalClusterer& clusterer);

/// Serializes a state to its text representation / parses it back.
/// Serialization emits format v2; parsing accepts v1 and v2.
std::string SerializeState(const ClustererState& state);
Result<ClustererState> ParseState(std::string_view text);

/// File round-trip helpers. Saving is atomic (write-temp + fsync +
/// rename) through `env`, which defaults to the process-wide POSIX Env.
Status SaveState(const ClustererState& state, const std::string& path,
                 Env* env = nullptr);
Result<ClustererState> LoadState(const std::string& path,
                                 Env* env = nullptr);

/// Builds a clusterer over `corpus` resuming from `state`. With an exact
/// section the numeric state is installed verbatim (bit-identical
/// continuation); otherwise statistics are rebuilt from the active set.
/// Cluster representatives are recomputed from the restored memberships
/// by the next Step that reseeds from them. Returns InvalidArgument if the
/// state references documents the corpus does not have or has released,
/// repeats an active id, lists an inactive document in a cluster, or is
/// internally inconsistent.
Result<std::unique_ptr<IncrementalClusterer>> RestoreClusterer(
    const Corpus* corpus, IncrementalOptions options,
    const ClustererState& state);

}  // namespace nidc

#endif  // NIDC_CORE_STATE_IO_H_
