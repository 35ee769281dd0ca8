// Drivers for the paper's two processing regimes.
//
// IncrementalClusterer implements §5.2: each step ingests newly arrived
// documents, expires stale ones (dw < ε), updates statistics incrementally
// (§5.1), and re-clusters seeded from the previous result.
//
// BatchClusterer is the non-incremental arm of Experiment 1: every step
// rebuilds all statistics from scratch and clusters from a random start.

#ifndef NIDC_CORE_INCREMENTAL_CLUSTERER_H_
#define NIDC_CORE_INCREMENTAL_CLUSTERER_H_

#include <memory>
#include <optional>
#include <vector>

#include "nidc/core/extended_kmeans.h"
#include "nidc/forgetting/forgetting_model.h"

namespace nidc::obs {
class ClusterHealthMonitor;
}  // namespace nidc::obs

namespace nidc {

/// Outcome of one processing step, with the two phase timings the paper's
/// Table 1 reports separately.
struct StepResult {
  ClusteringResult clustering;
  std::vector<DocId> expired;
  size_t num_new = 0;
  size_t num_active = 0;
  double stats_update_seconds = 0.0;
  double clustering_seconds = 0.0;

  /// Clustering telemetry, duplicated from `clustering` so step-level
  /// consumers (CLI digests, JSONL exports) need not reach into the full
  /// result: repetition sweeps run, outlier-list size, and the final
  /// clustering index G.
  int iterations = 0;
  size_t num_outliers = 0;
  double final_g = 0.0;

  /// True when phase 2 installed a logged clustering instead of running
  /// K-means (see IncrementalClusterer::Step).
  bool installed = false;

  /// ψ entries and heap bytes of the step's SimilarityContext, its largest
  /// transient; 0 when the step installed a logged clustering instead.
  size_t context_entries = 0;
  size_t context_bytes = 0;
};

/// Options for the incremental driver.
struct IncrementalOptions {
  /// K-means options; every step after the first is seeded from the
  /// previous step's memberships (see KMeansSeeds).
  ExtendedKMeansOptions kmeans;

  /// Telemetry sink for step-level metrics (doc churn, phase timings,
  /// vocabulary/tdw gauges); also propagated to the K-means run unless
  /// `kmeans.metrics` is set explicitly. Null (the default) disables all
  /// instrumentation.
  obs::MetricsRegistry* metrics = nullptr;

  /// Lifecycle-event sink (see obs/event_log.h): the step loop emits
  /// doc_expired here and propagates the log to the K-means run (cluster
  /// created/emptied/reseeded, doc moves) unless `kmeans.events` is set
  /// explicitly. Null (the default) emits nothing.
  obs::EventLog* events = nullptr;

  /// Per-step semantic health monitor (topic drift, membership churn,
  /// outlier/G EWMAs — see obs/cluster_health.h). When set, the driver
  /// builds a StepObservation from every completed step and feeds it; null
  /// (the default) skips the observation build entirely.
  obs::ClusterHealthMonitor* health = nullptr;

  /// Decision-provenance sink (see obs/provenance.h): stamped with the
  /// step number and propagated to the K-means run unless
  /// `kmeans.provenance` is set explicitly, so every record answers "why
  /// did doc D land in cluster C at step S". Null (the default) records
  /// nothing.
  obs::ProvenanceLog* provenance = nullptr;
};

/// Stateful on-line clusterer (§5.2).
class IncrementalClusterer {
 public:
  IncrementalClusterer(const Corpus* corpus, ForgettingParams params,
                       IncrementalOptions options);

  /// Processes the batch of documents acquired up to time `tau`:
  ///   1. advance the clock and incorporate `new_docs` (§5.2 step 1),
  ///   2. expire documents with dw < ε and update statistics (step 2),
  ///   3. cluster, seeded from the previous result (step 3).
  /// Rejects inputs that ValidateStepInputs rejects.
  ///
  /// `logged`, when set, is the clustering an earlier run computed for
  /// this same step (the durability layer's outcome log). Phase 2 installs
  /// it instead of running K-means if it is an exact partition of the
  /// post-phase-1 active set into min(k, active) clusters and outliers;
  /// otherwise K-means runs as usual. Only its memberships, outliers, G,
  /// sweep count and convergence flag are installed: the step has no
  /// representatives or cluster ids, emits no K-means events or
  /// provenance, and feeds the health monitor nothing.
  Result<StepResult> Step(const std::vector<DocId>& new_docs, DayTime tau,
                          const ClusteringResult* logged = nullptr);

  /// Checks a prospective step without applying it: `tau` must be finite
  /// and >= the current model time (no time travel), every id must name a
  /// corpus document that is not yet active (no duplicates within the
  /// batch either) and was acquired at or before `tau`, and the previous
  /// clustering must have no more clusters than k (a state restored under
  /// a smaller k cannot seed). Returns InvalidArgument describing the
  /// first violation; a rejected step changes nothing. The durability layer
  /// calls this before logging a step to its write-ahead log so rejected
  /// inputs never enter the log.
  Status ValidateStepInputs(const std::vector<DocId>& new_docs,
                            DayTime tau) const;

  /// The most recent clustering, if any step has run: what the membership
  /// reseed and SerializeState read of it. Its representatives and
  /// avg_sims are empty; the step's StepResult carries them.
  const std::optional<ClusteringResult>& last_result() const {
    return last_result_;
  }

  /// Number of Step() calls applied so far (including any accounted by a
  /// restored snapshot). Also the offset of the per-step random-seed
  /// stream, which is why snapshots persist it.
  uint64_t step_count() const { return step_count_; }

  /// Restores from a bit-exact model snapshot (ExactModelState): every
  /// subsequent Step computes exactly what the original instance would
  /// have computed — the foundation of the durability layer's
  /// recovery-equivalence guarantee. Rejects duplicate weight ids and a
  /// `last` whose clusters name a document the model does not hold.
  Status RestoreExact(const ExactModelState& model_state,
                      std::optional<ClusteringResult> last,
                      uint64_t step_count);

  ForgettingModel& model() { return model_; }
  const ForgettingModel& model() const { return model_; }
  const IncrementalOptions& options() const { return options_; }

 private:
  /// Rejects a restored `last_result_` whose clusters name a document the
  /// model does not hold.
  Status CheckRestoredMembers() const;

  /// Whether `logged` may stand in for this step's K-means run (see Step).
  bool IsPartitionOfActive(const ClusteringResult& logged) const;

  /// Phase 2's K-means run over the active set, seeded from
  /// `last_result_`.
  Result<ClusteringResult> RunKMeans(StepResult* result) const;

  ForgettingModel model_;
  IncrementalOptions options_;
  std::optional<ClusteringResult> last_result_;
  uint64_t step_count_ = 0;
};

/// Stateless from-scratch driver (non-incremental arm of Experiment 1).
class BatchClusterer {
 public:
  BatchClusterer(const Corpus* corpus, ForgettingParams params,
                 ExtendedKMeansOptions kmeans);

  /// Rebuilds all statistics from scratch for `docs` at time `tau`, expires
  /// documents below ε, then clusters from a random start.
  Result<StepResult> Run(const std::vector<DocId>& docs, DayTime tau);

  const ForgettingModel& model() const { return model_; }

 private:
  ForgettingModel model_;
  ExtendedKMeansOptions kmeans_;
};

}  // namespace nidc

#endif  // NIDC_CORE_INCREMENTAL_CLUSTERER_H_
