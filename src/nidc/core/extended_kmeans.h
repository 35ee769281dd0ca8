// The paper's extension of the K-means method (§4.3).
//
// Initial process: K random documents seed K singleton clusters.
// Repetition process: every document is (re)assigned to the cluster whose
// intra-cluster average similarity increases the most when the document is
// appended (evaluated via the Eq. 26 fast path); documents that increase no
// cluster go to the outlier list and re-enter the pool next iteration.
// Convergence: the relative change of the clustering index G falls below δ.

#ifndef NIDC_CORE_EXTENDED_KMEANS_H_
#define NIDC_CORE_EXTENDED_KMEANS_H_

#include <optional>
#include <vector>

#include "nidc/core/cluster_set.h"
#include "nidc/core/clustering_result.h"
#include "nidc/util/random.h"
#include "nidc/util/status.h"

namespace nidc::obs {
class EventLog;
class MetricsRegistry;
class ProvenanceLog;
}  // namespace nidc::obs

namespace nidc {

/// Which greedy gain the repetition step maximizes when (re)assigning a
/// document.
enum class AssignmentCriterion {
  /// Paper-literal §4.3 wording: the increase of avg_sim(C_p). Admits a
  /// document only when its mean similarity to the members *exceeds* the
  /// current intra-cluster average, which tightens clusters monotonically
  /// and leaves most documents on the outlier list.
  kAvgSimIncrease,
  /// The increase of the cluster's clustering-index term |C_p|·avg_sim
  /// (Eq. 17) — the objective the convergence test (step 4) actually
  /// monitors. Admits a document when its mean similarity to members
  /// exceeds half the current average; reproduces the cluster sizes and
  /// recalls the paper's evaluation reports. Default.
  kGIncrease,
};

/// Tuning knobs of the extended K-means.
struct ExtendedKMeansOptions {
  /// Number of clusters K.
  size_t k = 24;

  /// Assignment gain definition (see AssignmentCriterion).
  AssignmentCriterion criterion = AssignmentCriterion::kGIncrease;

  /// Convergence constant δ of the repetition step 4.
  double delta = 1e-3;

  /// Hard cap on repetition sweeps.
  int max_iterations = 50;

  /// Sweep documents in a fresh random order each iteration (false:
  /// chronological document order — deterministic).
  bool shuffle_each_iteration = false;

  /// Seed for initial-cluster selection and shuffling.
  uint64_t seed = 42;

  /// How the sweeps score gains (see ClusterScoring). kSlotted (default)
  /// runs the move-only sweep: a flat CSR posting index (FlatRepIndex)
  /// yields cr_sim(C_p, {d}) for all K clusters in one pass over ψ_d, is
  /// scanned with each document's ψ still attached, the detached
  /// home-cluster statistics are derived via the Eq. 25/26 identity
  /// (T_detached from the (c⃗−ψ)·ψ scan), and postings plus cluster caches
  /// are touched only when a document actually moves — per-sweep
  /// maintenance drops from O(N·|ψ|) to O(moves·|ψ|). kMerge is the
  /// per-cluster sorted-merge reference that kSlotted reproduces
  /// bit-for-bit.
  ClusterScoring scoring = ClusterScoring::kSlotted;

  /// Ignored: every run executes on its caller's thread. The field stays
  /// only because the end-to-end benchmark replay (bench/e2e/replay.cc)
  /// assigns it; delete the field and that assignment together in the next
  /// change to the benchmark.
  size_t num_threads = 0;

  /// Telemetry sink for the run (see obs/metrics.h): iteration counts,
  /// per-sweep moves, sweep/refresh timings, outlier counts,
  /// seeded-vs-sweep assignment split, G endpoints, and rep-index
  /// maintenance stats. Null (the default) skips all instrumentation — the
  /// hot path stays untouched.
  obs::MetricsRegistry* metrics = nullptr;

  /// Optional per-phase wall-clock sink (see KMeansProfile); used by the
  /// sweep bench to split score vs. index-maintenance vs. refresh time.
  /// Null (the default) skips the extra clock reads.
  struct KMeansProfile* profile = nullptr;

  /// First fresh stable cluster id this run may mint (see
  /// ClusteringResult::cluster_ids). Seeded clusters inherit
  /// KMeansSeeds::cluster_ids instead; incremental drivers pass the
  /// previous run's next_cluster_id here to keep ids globally monotone.
  uint64_t first_cluster_id = 0;

  /// Lifecycle-event sink (cluster created/emptied/reseeded, document
  /// moves — see obs/event_log.h). Null (the default) emits nothing and
  /// adds no work to the sweeps.
  obs::EventLog* events = nullptr;

  /// Decision-provenance sink (see obs/provenance.h): the sweeps capture
  /// each document's top-2 gains, margin and scoring path/kernel into a
  /// per-slot buffer (a few scalar stores per decision), and the run
  /// flushes one DecisionRecord per document — the *final* sweep's
  /// decision — at the end. Null (the default) adds no work to the sweeps.
  obs::ProvenanceLog* provenance = nullptr;

  Status Validate() const;
};

/// Accumulated wall-clock totals of one RunExtendedKMeans call, split by
/// phase. maintenance_seconds is the mutation time *inside* sweeps
/// (cluster/index updates for moves and stay-replays); sweep_seconds
/// includes it, so scoring time is sweep_seconds − maintenance_seconds.
struct KMeansProfile {
  double seed_seconds = 0.0;
  double sweep_seconds = 0.0;
  double maintenance_seconds = 0.0;
  double refresh_seconds = 0.0;
  double score_seconds() const { return sweep_seconds - maintenance_seconds; }

  /// ψ entries the refreshes summed into representatives (seeding's and
  /// every sweep's): Σ over refreshes of Σ |ψ_d| over the assigned
  /// documents, the work that keeps the refresh linear in the window.
  uint64_t refresh_entries = 0;

  /// Scoring-kernel telemetry (slotted sweeps only; see core/kernels).
  /// Bytes/entry counters come from the flat index's scan stats.
  const char* kernel = "";          // active kernel name (scalar/avx512)
  uint64_t score_bytes = 0;         // posting + row bytes streamed
  uint64_t entries_scanned = 0;     // posting entries touched
  uint64_t docs_scored = 0;         // ScoreAll* calls

  /// Posting-arena telemetry (slotted sweeps only; see FlatRepIndex::Stats):
  /// the most entries the arena held, stale runs included, and the largest
  /// factor by which it outgrew the entries a build laid out.
  uint64_t arena_peak_entries = 0;
  double arena_peak_growth = 0.0;

  /// Effective scoring bandwidth in GB/s (0 when nothing was timed).
  double score_gbps() const {
    const double s = score_seconds();
    return s > 0.0 ? static_cast<double>(score_bytes) / s / 1e9 : 0.0;
  }
};

/// Seeding payload for the incremental procedure (§5.2): clusters start
/// from the previous memberships (pruned to documents in the context), so
/// their representatives are recomputed from the surviving members — the
/// consistent reading of "reuse the cluster representatives", since Eq. 20
/// defines them as member sums.
struct KMeansSeeds {
  std::vector<std::vector<DocId>> memberships;
  /// Stable ids the seeded clusters inherit (index-aligned with
  /// memberships; empty = every cluster gets a fresh id).
  std::vector<uint64_t> cluster_ids;
};

/// Runs the extended K-means over `docs` (which must all be in `ctx`).
/// Without `seeds`, K random documents seed K singleton clusters (§4.3);
/// with them, the clusters start from the seeded memberships, falling back
/// to the random singletons when no seeded member is in the context.
///
/// Returns InvalidArgument if options are malformed, docs/ctx disagree, or
/// more than K seeded clusters have a member in the context; with fewer
/// documents than K the effective K is reduced.
Result<ClusteringResult> RunExtendedKMeans(
    const SimilarityContext& ctx, const std::vector<DocId>& docs,
    const ExtendedKMeansOptions& options,
    const std::optional<KMeansSeeds>& seeds = std::nullopt);

}  // namespace nidc

#endif  // NIDC_CORE_EXTENDED_KMEANS_H_
