// Semantic health telemetry for the streaming clusterer.
//
// Aggregate scores (G, outlier counts) say whether a run is *working*;
// they say nothing about whether the clustering is *drifting* — the
// central phenomenon of the forgetting model. ClusterHealthMonitor is fed
// one StepObservation per step, which carries the step's turnover (ids
// created / vanished, membership churn) as core computed it, and derives:
//
//   * topic drift    — cosine distance between each surviving cluster's
//                      representative and its value at the previous step,
//                      matched by stable cluster id (not position);
//   * cluster age    — steps since each live id first appeared;
//   * EWMAs          — outlier rate and |ΔG| smoothed across steps, so a
//                      single noisy step does not page anyone.
//
// The monitor publishes everything as `health.*` gauges/histograms in a
// MetricsRegistry and keeps a mutex-protected HealthSnapshot the
// introspection server renders into /statusz. It depends only on
// text-layer types (SparseVector) so it can live in obs/ below core; the
// drivers feed it plain ids, vectors and counts.

#ifndef NIDC_OBS_CLUSTER_HEALTH_H_
#define NIDC_OBS_CLUSTER_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/text/sparse_vector.h"

namespace nidc::obs {

/// One cluster as the monitor sees it: stable id, representative vector,
/// cached quality and member count.
struct ClusterObservation {
  uint64_t id = 0;
  SparseVector representative;
  double avg_sim = 0.0;
  size_t size = 0;
};

/// A step's clustering diffed against its predecessor's by stable id, once
/// per step (core's DiffSteps) for the event log and the monitor alike. A
/// predecessor without ids (installed or restored) is no baseline: every
/// live id is created and nothing else is counted.
struct StepTurnover {
  bool has_previous = false;
  /// Ids of non-empty clusters only the step (created) or only its
  /// predecessor (vanished) publishes, ascending.
  std::vector<uint64_t> created;
  std::vector<uint64_t> vanished;
  size_t docs_tracked = 0;  ///< Docs in a cluster at both steps.
  size_t docs_moved = 0;    ///< Of those, docs that changed cluster id.
};

/// Everything the monitor needs from one completed step.
struct StepObservation {
  uint64_t step = 0;
  double g = 0.0;
  size_t num_active = 0;
  size_t num_outliers = 0;
  StepTurnover turnover;
  /// Non-empty clusters only.
  std::vector<ClusterObservation> clusters;
};

/// Per-cluster health row, exposed for /statusz.
struct ClusterHealthRow {
  uint64_t id = 0;
  size_t size = 0;
  double avg_sim = 0.0;
  /// Steps since this id first appeared.
  uint64_t age_steps = 0;
  /// Cosine drift vs the previous step (0 for newly created clusters).
  double drift = 0.0;
};

/// Point-in-time health summary (all values refer to the latest observed
/// step).
struct HealthSnapshot {
  bool valid = false;        ///< At least one step observed.
  bool has_previous = false; ///< Drift/churn had a baseline step.
  uint64_t step = 0;
  double mean_drift = 0.0;
  double max_drift = 0.0;
  double membership_churn = 0.0;
  size_t docs_tracked = 0;   ///< Docs present in both steps (churn basis).
  size_t docs_moved = 0;     ///< Of those, docs that changed cluster id.
  uint64_t clusters_created = 0;   ///< Ids new at this step.
  uint64_t clusters_vanished = 0;  ///< Ids gone since the previous step.
  double outlier_rate = 0.0;
  double outlier_rate_ewma = 0.0;
  double g_delta_ewma = 0.0;
  std::vector<ClusterHealthRow> clusters;
};

struct ClusterHealthOptions {
  /// Metric sink for the health.* families; null disables publication
  /// (the snapshot is still maintained).
  MetricsRegistry* metrics = nullptr;
};

/// Stateful per-step health computer. Not thread-safe for concurrent
/// ObserveStep calls (the drivers call it from the step loop); snapshot()
/// is safe to call concurrently with ObserveStep.
class ClusterHealthMonitor {
 public:
  explicit ClusterHealthMonitor(ClusterHealthOptions options = {});

  ClusterHealthMonitor(const ClusterHealthMonitor&) = delete;
  ClusterHealthMonitor& operator=(const ClusterHealthMonitor&) = delete;

  /// Ingests one completed step: computes drift and age against the
  /// previous observation (none when `has_previous` is false), updates
  /// the EWMAs (weight 0.3 on the newest observation; the first seeds
  /// them), publishes the health.* metrics and replaces the retained
  /// baseline, moving each cluster's representative into it.
  void ObserveStep(StepObservation observation);

  /// The latest computed summary (valid == false before the first step).
  HealthSnapshot snapshot() const;

 private:
  struct PreviousCluster {
    SparseVector representative;
    double norm = 0.0;
    uint64_t first_step = 0;
  };

  void Publish(const HealthSnapshot& snapshot);

  const ClusterHealthOptions options_;

  // The previous step's clusters, keyed by stable cluster id.
  std::unordered_map<uint64_t, PreviousCluster> previous_clusters_;
  double previous_g_ = 0.0;

  mutable std::mutex snapshot_mu_;
  HealthSnapshot snapshot_;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_CLUSTER_HEALTH_H_
