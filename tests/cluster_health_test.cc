#include "nidc/obs/cluster_health.h"

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/metrics.h"
#include "nidc/text/sparse_vector.h"

namespace nidc {
namespace {

SparseVector Vec(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromEntries(std::move(entries));
}

obs::ClusterObservation Cluster(uint64_t id, SparseVector representative,
                                std::vector<uint32_t> members) {
  obs::ClusterObservation c;
  c.id = id;
  c.representative = std::move(representative);
  c.members = std::move(members);
  return c;
}

obs::StepObservation TwoClusterStep(uint64_t step) {
  obs::StepObservation o;
  o.step = step;
  o.g = 0.5;
  o.num_active = 4;
  o.clusters.push_back(Cluster(0, Vec({{1, 1.0}, {2, 1.0}}), {0, 1}));
  o.clusters.push_back(Cluster(1, Vec({{3, 1.0}}), {2, 3}));
  return o;
}

TEST(ClusterHealthTest, InvalidBeforeFirstStep) {
  obs::ClusterHealthMonitor monitor;
  EXPECT_FALSE(monitor.snapshot().valid);
}

TEST(ClusterHealthTest, IdenticalStepsHaveZeroDriftAndChurn) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  monitor.ObserveStep(TwoClusterStep(1));
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  ASSERT_TRUE(snapshot.valid);
  EXPECT_TRUE(snapshot.has_previous);
  EXPECT_DOUBLE_EQ(snapshot.mean_drift, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max_drift, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.membership_churn, 0.0);
  EXPECT_EQ(snapshot.docs_tracked, 4u);
  EXPECT_EQ(snapshot.docs_moved, 0u);
  EXPECT_EQ(snapshot.clusters_created, 0u);
  EXPECT_EQ(snapshot.clusters_vanished, 0u);
}

TEST(ClusterHealthTest, FirstStepHasNoBaseline) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  ASSERT_TRUE(snapshot.valid);
  EXPECT_FALSE(snapshot.has_previous);
  EXPECT_DOUBLE_EQ(snapshot.mean_drift, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.membership_churn, 0.0);
}

TEST(ClusterHealthTest, ChurnIsHandComputable) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  // Doc 1 moves from cluster 0 to cluster 1; docs 0, 2, 3 stay. Doc 4 is
  // new and must not count toward the churn basis.
  obs::StepObservation next;
  next.step = 1;
  next.g = 0.5;
  next.num_active = 5;
  next.clusters.push_back(Cluster(0, Vec({{1, 1.0}, {2, 1.0}}), {0}));
  next.clusters.push_back(Cluster(1, Vec({{3, 1.0}}), {1, 2, 3, 4}));
  monitor.ObserveStep(next);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_EQ(snapshot.docs_tracked, 4u);
  EXPECT_EQ(snapshot.docs_moved, 1u);
  EXPECT_DOUBLE_EQ(snapshot.membership_churn, 0.25);
}

// (docs tracked, docs moved) counted through a hash map of doc → cluster
// id, the representation the monitor's sorted baseline replaced.
std::pair<size_t, size_t> MapChurn(const obs::StepObservation& before,
                                   const obs::StepObservation& after) {
  std::unordered_map<uint32_t, uint64_t> previous;
  for (const auto& cluster : before.clusters) {
    for (uint32_t doc : cluster.members) previous[doc] = cluster.id;
  }
  size_t tracked = 0;
  size_t moved = 0;
  for (const auto& cluster : after.clusters) {
    for (uint32_t doc : cluster.members) {
      const auto it = previous.find(doc);
      if (it == previous.end()) continue;
      ++tracked;
      moved += it->second != cluster.id;
    }
  }
  return {tracked, moved};
}

TEST(ClusterHealthTest, ChurnMatchesTheMapCount) {
  // Unsorted members; docs 1, 3, 4, 8 and 15 are in both steps, 3 and 4
  // change cluster, and 9, 20 leave while 22, 30, 50 and 60 arrive.
  obs::StepObservation first;
  first.step = 0;
  first.num_active = 7;
  first.clusters.push_back(Cluster(7, Vec({{1, 1.0}}), {9, 3, 15, 1}));
  first.clusters.push_back(Cluster(2, Vec({{2, 1.0}}), {20, 8, 4}));
  obs::StepObservation second;
  second.step = 1;
  second.num_active = 9;
  second.clusters.push_back(Cluster(2, Vec({{2, 1.0}}), {30, 3, 8}));
  second.clusters.push_back(Cluster(7, Vec({{1, 1.0}}), {22, 15, 1}));
  second.clusters.push_back(Cluster(11, Vec({{3, 1.0}}), {60, 4, 50}));
  const auto [tracked, moved] = MapChurn(first, second);
  ASSERT_EQ(tracked, 5u);
  ASSERT_EQ(moved, 2u);

  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(first);
  monitor.ObserveStep(second);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_EQ(snapshot.docs_tracked, tracked);
  EXPECT_EQ(snapshot.docs_moved, moved);
  EXPECT_DOUBLE_EQ(snapshot.membership_churn, 2.0 / 5.0);
}

TEST(ClusterHealthTest, DriftIsMatchedByIdNotPosition) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  // Same clusters, listed in the opposite order. Matching by position
  // would report a large spurious drift.
  obs::StepObservation swapped = TwoClusterStep(1);
  std::swap(swapped.clusters[0], swapped.clusters[1]);
  monitor.ObserveStep(swapped);
  EXPECT_DOUBLE_EQ(monitor.snapshot().mean_drift, 0.0);
}

TEST(ClusterHealthTest, OrthogonalRepresentativeDriftsToOne) {
  obs::ClusterHealthMonitor monitor;
  obs::StepObservation first;
  first.step = 0;
  first.num_active = 1;
  first.clusters.push_back(Cluster(7, Vec({{1, 1.0}}), {0}));
  monitor.ObserveStep(first);
  obs::StepObservation second;
  second.step = 1;
  second.num_active = 1;
  second.clusters.push_back(Cluster(7, Vec({{2, 1.0}}), {0}));
  monitor.ObserveStep(second);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_NEAR(snapshot.mean_drift, 1.0, 1e-12);
  EXPECT_NEAR(snapshot.max_drift, 1.0, 1e-12);
}

TEST(ClusterHealthTest, TracksCreatedAndVanishedIds) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  obs::StepObservation next;
  next.step = 1;
  next.num_active = 4;
  next.clusters.push_back(Cluster(0, Vec({{1, 1.0}, {2, 1.0}}), {0, 1}));
  next.clusters.push_back(Cluster(5, Vec({{9, 1.0}}), {2, 3}));
  monitor.ObserveStep(next);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_EQ(snapshot.clusters_created, 1u);   // id 5 is new
  EXPECT_EQ(snapshot.clusters_vanished, 1u);  // id 1 is gone
  // The fresh cluster reports zero drift (no baseline to drift from).
  for (const obs::ClusterHealthRow& row : snapshot.clusters) {
    if (row.id == 5) {
      EXPECT_DOUBLE_EQ(row.drift, 0.0);
    }
  }
}

TEST(ClusterHealthTest, ClusterAgeCountsStepsSinceFirstSeen) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  monitor.ObserveStep(TwoClusterStep(1));
  monitor.ObserveStep(TwoClusterStep(2));
  for (const obs::ClusterHealthRow& row : monitor.snapshot().clusters) {
    EXPECT_EQ(row.age_steps, 2u);
  }
}

TEST(ClusterHealthTest, EwmaSeedsFromFirstObservationThenBlends) {
  obs::ClusterHealthOptions options;
  options.ewma_alpha = 0.5;
  obs::ClusterHealthMonitor monitor(options);

  obs::StepObservation first = TwoClusterStep(0);
  first.num_active = 10;
  first.num_outliers = 2;  // rate 2 / 10 = 0.2 seeds the EWMA
  monitor.ObserveStep(first);
  EXPECT_DOUBLE_EQ(monitor.snapshot().outlier_rate_ewma, 0.2);

  obs::StepObservation second = TwoClusterStep(1);
  second.num_active = 10;
  second.num_outliers = 4;  // rate 0.4; EWMA 0.5*0.4 + 0.5*0.2 = 0.3
  monitor.ObserveStep(second);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.outlier_rate, 0.4);
  EXPECT_NEAR(snapshot.outlier_rate_ewma, 0.3, 1e-12);
}

TEST(ClusterHealthTest, GDeltaEwmaSmoothsAbsoluteDeltas) {
  obs::ClusterHealthOptions options;
  options.ewma_alpha = 0.5;
  obs::ClusterHealthMonitor monitor(options);
  obs::StepObservation step = TwoClusterStep(0);
  step.g = 0.5;  // first step has no ΔG baseline — seeds the EWMA at 0
  monitor.ObserveStep(step);
  EXPECT_DOUBLE_EQ(monitor.snapshot().g_delta_ewma, 0.0);
  step.step = 1;
  step.g = 0.3;  // |ΔG| = 0.2; EWMA 0.5*0.2 + 0.5*0 = 0.1
  monitor.ObserveStep(step);
  EXPECT_NEAR(monitor.snapshot().g_delta_ewma, 0.1, 1e-12);
  step.step = 2;
  step.g = 0.3;  // |ΔG| = 0; EWMA 0.5*0 + 0.5*0.1 = 0.05
  monitor.ObserveStep(step);
  EXPECT_NEAR(monitor.snapshot().g_delta_ewma, 0.05, 1e-12);
}

TEST(ClusterHealthTest, PublishesHealthMetricsWhenRegistrySupplied) {
  obs::MetricsRegistry registry;
  obs::ClusterHealthOptions options;
  options.metrics = &registry;
  obs::ClusterHealthMonitor monitor(options);
  monitor.ObserveStep(TwoClusterStep(0));
  monitor.ObserveStep(TwoClusterStep(1));
  EXPECT_EQ(registry.GetCounter("health.steps")->Value(), 2u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("health.topic_drift")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("health.membership_churn")->Value(),
                   0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("health.docs_tracked")->Value(), 4.0);
}

}  // namespace
}  // namespace nidc
