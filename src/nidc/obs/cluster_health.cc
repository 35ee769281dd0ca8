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

}  // namespace

ClusterHealthMonitor::ClusterHealthMonitor(ClusterHealthOptions options)
    : options_(options) {}

void ClusterHealthMonitor::ObserveStep(StepObservation observation) {
  HealthSnapshot snapshot;
  snapshot.valid = true;
  snapshot.has_previous = has_previous_;
  snapshot.step = observation.step;

  // --- Topic drift, per surviving id ---
  double drift_sum = 0.0;
  size_t drift_count = 0;
  snapshot.clusters.reserve(observation.clusters.size());
  for (const ClusterObservation& cluster : observation.clusters) {
    ClusterHealthRow row;
    row.id = cluster.id;
    row.size = cluster.members.size();
    row.avg_sim = cluster.avg_sim;
    auto first_seen = first_seen_step_.find(cluster.id);
    if (first_seen == first_seen_step_.end()) {
      first_seen = first_seen_step_.emplace(cluster.id, observation.step)
                       .first;
      ++snapshot.clusters_created;
    }
    row.age_steps = observation.step - first_seen->second;
    if (const auto prev = previous_clusters_.find(cluster.id);
        prev != previous_clusters_.end()) {
      row.drift = CosineDistance(cluster.representative,
                                 cluster.representative.Norm(),
                                 prev->second.representative,
                                 prev->second.norm);
      drift_sum += row.drift;
      ++drift_count;
      snapshot.max_drift = std::max(snapshot.max_drift, row.drift);
    }
    snapshot.clusters.push_back(std::move(row));
  }
  snapshot.mean_drift = drift_count > 0
                            ? drift_sum / static_cast<double>(drift_count)
                            : 0.0;

  // --- Membership churn over docs present in both steps ---
  std::vector<std::pair<uint32_t, uint64_t>> assignment;
  for (const ClusterObservation& cluster : observation.clusters) {
    for (uint32_t doc : cluster.members) {
      assignment.emplace_back(doc, cluster.id);
    }
  }
  std::sort(assignment.begin(), assignment.end());
  if (has_previous_) {
    auto prev = previous_assignment_.begin();
    for (const auto& [doc, id] : assignment) {
      while (prev != previous_assignment_.end() && prev->first < doc) ++prev;
      if (prev == previous_assignment_.end()) break;
      if (prev->first != doc) continue;
      ++snapshot.docs_tracked;
      if (prev->second != id) ++snapshot.docs_moved;
    }
    snapshot.membership_churn =
        snapshot.docs_tracked > 0
            ? static_cast<double>(snapshot.docs_moved) /
                  static_cast<double>(snapshot.docs_tracked)
            : 0.0;
    for (const auto& [id, unused] : previous_clusters_) {
      (void)unused;
      if (!std::any_of(observation.clusters.begin(),
                       observation.clusters.end(),
                       [&](const ClusterObservation& c) {
                         return c.id == id;
                       })) {
        ++snapshot.clusters_vanished;
      }
    }
  }

  // --- Rates and EWMAs ---
  const double denominator =
      static_cast<double>(observation.num_active) +
      (observation.num_active == 0 ? 1.0 : 0.0);  // guard 0/0
  snapshot.outlier_rate =
      static_cast<double>(observation.num_outliers) / denominator;
  const double g_delta =
      has_previous_ ? std::abs(observation.g - previous_g_) : 0.0;
  const double alpha = options_.ewma_alpha;
  if (!ewma_seeded_) {
    // EWMA seeding: the first observation is the EWMA.
    outlier_rate_ewma_ = snapshot.outlier_rate;
    g_delta_ewma_ = g_delta;
    ewma_seeded_ = true;
  } else {
    outlier_rate_ewma_ =
        alpha * snapshot.outlier_rate + (1.0 - alpha) * outlier_rate_ewma_;
    g_delta_ewma_ = alpha * g_delta + (1.0 - alpha) * g_delta_ewma_;
  }
  snapshot.outlier_rate_ewma = outlier_rate_ewma_;
  snapshot.g_delta_ewma = g_delta_ewma_;

  Publish(snapshot);

  // --- Install this step as the next baseline ---
  previous_clusters_.clear();
  for (ClusterObservation& cluster : observation.clusters) {
    const double norm = cluster.representative.Norm();
    previous_clusters_.emplace(
        cluster.id,
        PreviousCluster{std::move(cluster.representative), norm});
  }
  // A vanished id never returns (reseeds mint fresh ids), so the
  // first-seen map only needs the live ids — prune it or it grows one
  // entry per reseed for the life of the process.
  std::erase_if(first_seen_step_, [&](const auto& entry) {
    return !previous_clusters_.contains(entry.first);
  });
  previous_assignment_ = std::move(assignment);
  previous_g_ = observation.g;
  has_previous_ = true;

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
