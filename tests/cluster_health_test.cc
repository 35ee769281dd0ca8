#include "nidc/obs/cluster_health.h"

#include <cmath>
#include <cstdint>
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
                                size_t size) {
  obs::ClusterObservation c;
  c.id = id;
  c.representative = std::move(representative);
  c.size = size;
  return c;
}

// Two clusters of two documents each. Step 0 has no predecessor, so both
// ids are created; a later step repeats the previous one, so its diff
// tracks all four documents and moves none.
obs::StepObservation TwoClusterStep(uint64_t step) {
  obs::StepObservation o;
  o.step = step;
  o.g = 0.5;
  o.num_active = 4;
  if (step == 0) {
    o.turnover.created = {0, 1};
  } else {
    o.turnover.has_previous = true;
    o.turnover.docs_tracked = 4;
  }
  o.clusters.push_back(Cluster(0, Vec({{1, 1.0}, {2, 1.0}}), 2));
  o.clusters.push_back(Cluster(1, Vec({{3, 1.0}}), 2));
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
  EXPECT_EQ(snapshot.clusters_created, 2u);
}

TEST(ClusterHealthTest, ChurnIsTheMovedShareOfTrackedDocs) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  obs::StepObservation next = TwoClusterStep(1);
  next.turnover.docs_moved = 1;
  monitor.ObserveStep(next);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_EQ(snapshot.docs_tracked, 4u);
  EXPECT_EQ(snapshot.docs_moved, 1u);
  EXPECT_DOUBLE_EQ(snapshot.membership_churn, 0.25);
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
  first.clusters.push_back(Cluster(7, Vec({{1, 1.0}}), 1));
  monitor.ObserveStep(first);
  obs::StepObservation second;
  second.step = 1;
  second.num_active = 1;
  second.turnover.has_previous = true;
  second.clusters.push_back(Cluster(7, Vec({{2, 1.0}}), 1));
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
  next.turnover.has_previous = true;
  next.turnover.created = {5};
  next.turnover.vanished = {1};
  next.clusters.push_back(Cluster(0, Vec({{1, 1.0}, {2, 1.0}}), 2));
  next.clusters.push_back(Cluster(5, Vec({{9, 1.0}}), 2));
  monitor.ObserveStep(next);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_EQ(snapshot.clusters_created, 1u);
  EXPECT_EQ(snapshot.clusters_vanished, 1u);
  // The fresh cluster reports zero drift (no baseline to drift from) and
  // age 0; the survivor is one step old.
  for (const obs::ClusterHealthRow& row : snapshot.clusters) {
    if (row.id == 5) {
      EXPECT_DOUBLE_EQ(row.drift, 0.0);
      EXPECT_EQ(row.age_steps, 0u);
    } else {
      EXPECT_EQ(row.age_steps, 1u);
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

TEST(ClusterHealthTest, NoBaselineForgetsDriftAndAge) {
  obs::ClusterHealthMonitor monitor;
  monitor.ObserveStep(TwoClusterStep(0));
  monitor.ObserveStep(TwoClusterStep(1));
  // The same ids after an installed step: their predecessor carried no
  // ids, so nothing is matched against step 1.
  obs::StepObservation next;
  next.step = 3;
  next.g = 0.9;
  next.num_active = 4;
  next.turnover.created = {0, 1};
  next.clusters.push_back(Cluster(0, Vec({{4, 1.0}}), 2));
  next.clusters.push_back(Cluster(1, Vec({{3, 1.0}}), 2));
  monitor.ObserveStep(next);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_FALSE(snapshot.has_previous);
  EXPECT_EQ(snapshot.clusters_created, 2u);
  EXPECT_DOUBLE_EQ(snapshot.max_drift, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.g_delta_ewma, 0.0);
  for (const obs::ClusterHealthRow& row : snapshot.clusters) {
    EXPECT_EQ(row.age_steps, 0u);
  }
}

TEST(ClusterHealthTest, EwmaSeedsFromFirstObservationThenBlends) {
  obs::ClusterHealthMonitor monitor;

  obs::StepObservation first = TwoClusterStep(0);
  first.num_active = 10;
  first.num_outliers = 2;  // rate 2 / 10 = 0.2 seeds the EWMA
  monitor.ObserveStep(first);
  EXPECT_DOUBLE_EQ(monitor.snapshot().outlier_rate_ewma, 0.2);

  obs::StepObservation second = TwoClusterStep(1);
  second.num_active = 10;
  second.num_outliers = 4;  // rate 0.4; EWMA 0.3*0.4 + 0.7*0.2 = 0.26
  monitor.ObserveStep(second);
  const obs::HealthSnapshot snapshot = monitor.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.outlier_rate, 0.4);
  EXPECT_NEAR(snapshot.outlier_rate_ewma, 0.26, 1e-12);
}

TEST(ClusterHealthTest, GDeltaEwmaSmoothsAbsoluteDeltas) {
  obs::ClusterHealthMonitor monitor;
  obs::StepObservation step = TwoClusterStep(0);
  step.g = 0.5;  // first step has no ΔG baseline — seeds the EWMA at 0
  monitor.ObserveStep(step);
  EXPECT_DOUBLE_EQ(monitor.snapshot().g_delta_ewma, 0.0);
  step = TwoClusterStep(1);
  step.g = 0.3;  // |ΔG| = 0.2; EWMA 0.3*0.2 + 0.7*0 = 0.06
  monitor.ObserveStep(step);
  EXPECT_NEAR(monitor.snapshot().g_delta_ewma, 0.06, 1e-12);
  step.step = 2;
  step.g = 0.3;  // |ΔG| = 0; EWMA 0.3*0 + 0.7*0.06 = 0.042
  monitor.ObserveStep(step);
  EXPECT_NEAR(monitor.snapshot().g_delta_ewma, 0.042, 1e-12);
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
