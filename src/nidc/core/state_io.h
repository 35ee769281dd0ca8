// Persistence for the on-line clusterer: snapshot the incremental state
// (clock, active set, step counter, last clustering) to a text file and
// restore it after a process restart, without replaying the stream. The
// corpus itself is persisted separately (corpus_io.h); a snapshot is only
// valid against the same corpus loaded in the same order (document ids and
// term ids must match).
//
// The format (nidc-state v2) embeds the model's ExactModelState (raw
// weights, term sums and decay scale as hex floats), so a restored
// clusterer continues *bit-identically* — the property the store/
// durability layer's crash-recovery guarantee is built on. The exact
// section is required: a text without it, or an older v1 text, does not
// parse.
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
  /// Bit-exact numeric state; its weights list the active documents in
  /// `active_docs` order.
  ExactModelState exact;
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

/// Captures the clusterer's current state.
ClustererState CaptureState(const IncrementalClusterer& clusterer);

/// Serializes a state to its text representation / parses it back.
/// Both speak format v2 with its exact section.
std::string SerializeState(const ClustererState& state);
Result<ClustererState> ParseState(std::string_view text);

/// File round-trip helpers. Saving is atomic (write-temp + fsync +
/// rename) through `env`, which defaults to the process-wide POSIX Env.
Status SaveState(const ClustererState& state, const std::string& path,
                 Env* env = nullptr);
Result<ClustererState> LoadState(const std::string& path,
                                 Env* env = nullptr);

/// Builds a clusterer over `corpus` resuming from `state`: the exact
/// numeric state is installed verbatim (bit-identical continuation), and
/// the next Step reseeds from the restored memberships. Returns
/// InvalidArgument if the state references documents the corpus does not
/// have or has released (or acquired after its clock), repeats an active
/// id, lists an inactive document in a cluster, or has exact weights that
/// disagree with its active list.
Result<std::unique_ptr<IncrementalClusterer>> RestoreClusterer(
    const Corpus* corpus, IncrementalOptions options,
    const ClustererState& state);

}  // namespace nidc

#endif  // NIDC_CORE_STATE_IO_H_
