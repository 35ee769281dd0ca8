#include "nidc/obs/cluster_health.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nidc::obs {

namespace {

// Cosine distance 1 − a·b/(|a||b|), clamped to [0, 1]-ish sanity: vectors
// here are non-negative term weights, so the cosine is non-negative and
// the distance stays in [0, 1] up to rounding.
double CosineDistance(const SparseVector& a, double norm_a,
                      const SparseVector& b, double norm_b) {
  if (norm_a <= 0.0 || norm_b <= 0.0) return 1.0;
  const double cosine = a.Dot(b) / (norm_a * norm_b);
  const double distance = std::max(0.0, 1.0 - cosine);
  // Snap rounding residue to an exact 0 so "identical representatives"
  // reads as zero drift on dashboards instead of 1e-16 noise.
  return distance < 1e-12 ? 0.0 : distance;
}

// EWMA smoothing factor: the weight of the newest observation.
constexpr double kEwmaAlpha = 0.3;

}  // namespace

ClusterHealthMonitor::ClusterHealthMonitor(ClusterHealthOptions options)
    : options_(options) {}

void ClusterHealthMonitor::ObserveStep(StepObservation observation) {
  HealthSnapshot snapshot;
  snapshot.valid = true;
  snapshot.step = observation.step;
  const StepTurnover& turnover = observation.turnover;
  snapshot.has_previous = turnover.has_previous;
  snapshot.clusters_created = turnover.created.size();
  snapshot.clusters_vanished = turnover.vanished.size();
  snapshot.docs_tracked = turnover.docs_tracked;
  snapshot.docs_moved = turnover.docs_moved;
  snapshot.membership_churn =
      snapshot.docs_tracked > 0
          ? static_cast<double>(snapshot.docs_moved) /
                static_cast<double>(snapshot.docs_tracked)
          : 0.0;
  // Without a baseline no cluster has drifted and every id is new.
  if (!turnover.has_previous) previous_clusters_.clear();

  // --- Topic drift and age, per surviving id ---
  double drift_sum = 0.0;
  size_t drift_count = 0;
  std::unordered_map<uint64_t, PreviousCluster> current;
  for (ClusterObservation& cluster : observation.clusters) {
    ClusterHealthRow row;
    row.id = cluster.id;
    row.size = cluster.size;
    row.avg_sim = cluster.avg_sim;
    const double norm = cluster.representative.Norm();
    uint64_t first_step = observation.step;
    if (const auto prev = previous_clusters_.find(cluster.id);
        prev != previous_clusters_.end()) {
      first_step = prev->second.first_step;
      row.drift = CosineDistance(cluster.representative, norm,
                                 prev->second.representative,
                                 prev->second.norm);
      drift_sum += row.drift;
      ++drift_count;
      snapshot.max_drift = std::max(snapshot.max_drift, row.drift);
    }
    row.age_steps = observation.step - first_step;
    current.emplace(cluster.id,
                    PreviousCluster{std::move(cluster.representative), norm,
                                    first_step});
    snapshot.clusters.push_back(std::move(row));
  }
  snapshot.mean_drift = drift_count > 0
                            ? drift_sum / static_cast<double>(drift_count)
                            : 0.0;

  // --- Rates and EWMAs: each blends into the previous snapshot's value
  // (read unlocked, as only ObserveStep writes snapshot_); the first
  // observation seeds them ---
  snapshot.outlier_rate =
      static_cast<double>(observation.num_outliers) /
      static_cast<double>(std::max<size_t>(observation.num_active, 1));
  const double g_delta =
      turnover.has_previous ? std::abs(observation.g - previous_g_) : 0.0;
  const auto blend = [seeded = snapshot_.valid](double value, double ewma) {
    return seeded ? kEwmaAlpha * value + (1.0 - kEwmaAlpha) * ewma : value;
  };
  snapshot.outlier_rate_ewma =
      blend(snapshot.outlier_rate, snapshot_.outlier_rate_ewma);
  snapshot.g_delta_ewma = blend(g_delta, snapshot_.g_delta_ewma);

  Publish(snapshot);

  // This step is the next one's baseline.
  previous_clusters_ = std::move(current);
  previous_g_ = observation.g;

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

void ClusterHealthMonitor::Publish(const HealthSnapshot& snapshot) {
  MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) return;
  metrics->GetCounter("health.steps")->Increment();
  metrics->GetGauge("health.topic_drift")->Set(snapshot.mean_drift);
  metrics->GetGauge("health.topic_drift_max")->Set(snapshot.max_drift);
  metrics->GetGauge("health.membership_churn")
      ->Set(snapshot.membership_churn);
  metrics->GetGauge("health.docs_tracked")
      ->Set(static_cast<double>(snapshot.docs_tracked));
  metrics->GetGauge("health.outlier_rate")->Set(snapshot.outlier_rate);
  metrics->GetGauge("health.outlier_rate_ewma")
      ->Set(snapshot.outlier_rate_ewma);
  metrics->GetGauge("health.g_delta_ewma")->Set(snapshot.g_delta_ewma);
  metrics->GetCounter("health.clusters_created")
      ->Increment(snapshot.clusters_created);
  metrics->GetCounter("health.clusters_vanished")
      ->Increment(snapshot.clusters_vanished);
  static const std::vector<double> kDriftBuckets = {
      0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75};
  Histogram* drift_hist =
      metrics->GetHistogram("health.drift_per_cluster", kDriftBuckets);
  for (const ClusterHealthRow& row : snapshot.clusters) {
    drift_hist->Observe(row.drift);
  }
}

HealthSnapshot ClusterHealthMonitor::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

}  // namespace nidc::obs
