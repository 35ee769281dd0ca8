#include "nidc/core/incremental_clusterer.h"

#include <cmath>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/util/crc32.h"

namespace nidc {
namespace {

class IncrementalClustererTest : public testing::Test {
 protected:
  void SetUp() override {
    // Day 0: iraq topic. Day 1: olympics. Day 30: tobacco (iraq expires
    // under a short life span by then).
    corpus_.AddText("iraq weapons inspection baghdad", 0.0, 1);
    corpus_.AddText("iraq sanctions baghdad embargo", 0.0, 1);
    corpus_.AddText("olympics skating nagano medal", 1.0, 2);
    corpus_.AddText("olympics hockey nagano final", 1.0, 2);
    corpus_.AddText("tobacco settlement senate lawsuit", 30.0, 3);
    corpus_.AddText("tobacco lawsuit vote senate", 30.0, 3);
  }

  ForgettingParams Params(double beta = 7.0, double gamma = 14.0) {
    ForgettingParams p;
    p.half_life_days = beta;
    p.life_span_days = gamma;
    return p;
  }

  IncrementalOptions Options(size_t k = 2) {
    IncrementalOptions o;
    o.kmeans.k = k;
    o.kmeans.seed = 3;
    return o;
  }

  Corpus corpus_;
};

TEST_F(IncrementalClustererTest, FirstStepClustersFromScratch) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_new, 4u);
  EXPECT_EQ(result->num_active, 4u);
  EXPECT_TRUE(result->expired.empty());
  EXPECT_TRUE(ic.last_result().has_value());
}

TEST_F(IncrementalClustererTest, StepsAccumulateDocuments) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  auto second = ic.Step({2, 3}, 1.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_active, 4u);
}

TEST_F(IncrementalClustererTest, OldDocumentsExpire) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 14.0), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 1.0).ok());
  // 29 days later the day-0/1 docs are far below ε = 0.25.
  auto result = ic.Step({4, 5}, 30.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->expired.size(), 4u);
  EXPECT_EQ(result->num_active, 2u);
  EXPECT_EQ(ic.model().num_active(), 2u);
}

TEST_F(IncrementalClustererTest, RejectsTimeTravel) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 5.0).ok());
  EXPECT_EQ(ic.Step({4}, 2.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IncrementalClustererTest, RejectsNonFiniteStepTime) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  EXPECT_EQ(ic.Step({0, 1}, std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ic.Step({0, 1}, std::numeric_limits<double>::infinity()).status().code(),
      StatusCode::kInvalidArgument);
  // A rejected step must not mutate the model; the clean step still works.
  EXPECT_TRUE(ic.Step({0, 1}, 0.0).ok());
}

TEST_F(IncrementalClustererTest, RejectsMalformedBatches) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  // Beyond-corpus id.
  EXPECT_EQ(ic.Step({99}, 0.0).status().code(), StatusCode::kInvalidArgument);
  // Duplicate id within the batch.
  EXPECT_EQ(ic.Step({0, 1, 0}, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  // Re-adding an already-active document.
  EXPECT_EQ(ic.Step({1, 2}, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  // A document the corpus has released from memory.
  corpus_.ReleaseBefore(3);
  EXPECT_EQ(ic.Step({2}, 1.0).status().code(), StatusCode::kInvalidArgument);
  // None of the rejects advanced the model clock or active set.
  EXPECT_EQ(ic.model().now(), 0.0);
  EXPECT_EQ(ic.model().num_active(), 2u);
}

TEST_F(IncrementalClustererTest, FailsWhenEverythingExpired) {
  IncrementalClusterer ic(&corpus_, Params(1.0, 2.0), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  // 100 days of silence: both docs expire, nothing to cluster.
  EXPECT_EQ(ic.Step({}, 100.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalClustererTest, TimingsAreRecorded) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats_update_seconds, 0.0);
  EXPECT_GT(result->clustering_seconds, 0.0);
}

TEST_F(IncrementalClustererTest, StepResultCarriesClusteringDigest) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, result->clustering.iterations);
  EXPECT_GT(result->iterations, 0);
  EXPECT_EQ(result->num_outliers, result->clustering.outliers.size());
  EXPECT_DOUBLE_EQ(result->final_g, result->clustering.g);
  ASSERT_FALSE(result->clustering.g_history.empty());
  EXPECT_DOUBLE_EQ(result->final_g, result->clustering.g_history.back());
}

TEST_F(IncrementalClustererTest, StepPopulatesMetricsRegistry) {
  obs::MetricsRegistry registry;
  IncrementalOptions opts = Options();
  opts.metrics = &registry;
  IncrementalClusterer ic(&corpus_, Params(), opts);
  auto result = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(registry.GetCounter("step.count")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("step.docs_new")->Value(), 4u);
  EXPECT_EQ(registry.GetCounter("kmeans.runs")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("kmeans.iterations")->Value(),
            static_cast<uint64_t>(result->iterations));
  EXPECT_DOUBLE_EQ(registry.GetGauge("kmeans.g_final")->Value(),
                   result->final_g);
  EXPECT_DOUBLE_EQ(registry.GetGauge("step.active_docs")->Value(), 4.0);
  EXPECT_GT(registry.GetGauge("term_stats.vocab_size")->Value(), 0.0);

  ASSERT_TRUE(ic.Step({4, 5}, 30.0).ok());
  EXPECT_EQ(registry.GetCounter("step.count")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("kmeans.runs")->Value(), 2u);
  EXPECT_EQ(registry.GetCounter("step.docs_expired")->Value(), 4u);
}

TEST_F(IncrementalClustererTest, StepRecordsTraceSpans) {
  obs::PhaseProfiler profiler;
  obs::ScopedProfilerInstall install(&profiler);
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1, 2, 3}, 1.0).ok());
  std::map<std::string, uint64_t> counts;
  for (const obs::PhaseProfiler::PhaseStats& phase : profiler.CurrentStep()) {
    counts[phase.path] = phase.count;
  }
  EXPECT_EQ(counts["clusterer.step"], 1u);
  EXPECT_EQ(counts["clusterer.step;step.stats_update"], 1u);
  EXPECT_EQ(counts["clusterer.step;kmeans.run"], 1u);
  EXPECT_GE(counts["clusterer.step;kmeans.run;kmeans.sweep"], 1u);
}

TEST_F(IncrementalClustererTest, MembershipReseedKeepsStableClusters) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 60.0), Options());
  auto first = ic.Step({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(first.ok());
  const auto clusters_before = first->clustering.clusters;
  // A quiet step (no new docs, tiny time passage) shouldn't upend anything.
  auto second = ic.Step({}, 1.5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->clustering.clusters, clusters_before);
}

TEST_F(IncrementalClustererTest, RestoredClustererStepsBitIdentically) {
  // Snapshot round-trip: a restored clusterer reseeds its next steps from
  // the restored memberships and must steer K-means exactly as the
  // original did.
  const IncrementalOptions opts = Options();
  corpus_.AddText("iraq inspection weapons embargo", 2.0, 1);
  corpus_.AddText("nagano medal skating final", 2.0, 2);
  corpus_.AddText("senate tobacco settlement vote", 31.0, 3);
  IncrementalClusterer original(&corpus_, Params(7.0, 60.0), opts);
  ASSERT_TRUE(original.Step({0, 2}, 1.0).ok());
  ASSERT_TRUE(original.Step({1, 3}, 1.5).ok());
  Result<ClustererState> snapshot =
      ParseState(SerializeState(CaptureState(original)));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto restored = RestoreClusterer(&corpus_, opts, *snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const std::vector<std::vector<DocId>> batches = {{6, 7}, {4, 5}, {8}};
  const std::vector<DayTime> taus = {2.5, 30.5, 31.5};
  for (size_t i = 0; i < batches.size(); ++i) {
    auto want = original.Step(batches[i], taus[i]);
    auto got = (*restored)->Step(batches[i], taus[i]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->clustering.clusters, want->clustering.clusters) << i;
    EXPECT_EQ(got->clustering.outliers, want->clustering.outliers) << i;
    EXPECT_EQ(got->clustering.g, want->clustering.g) << i;
    EXPECT_EQ(got->iterations, want->iterations) << i;
  }
  EXPECT_EQ(SerializeState(CaptureState(**restored)),
            SerializeState(CaptureState(original)));
}

TEST_F(IncrementalClustererTest, StepUnderASmallerKChangesNothing) {
  // A state saved under k = 4 and restored under k = 2 cannot seed: the
  // step is refused before phase 1 advances the model or adds documents.
  IncrementalClusterer original(&corpus_, Params(7.0, 60.0), Options(4));
  ASSERT_TRUE(original.Step({0, 1, 2, 3}, 1.0).ok());
  ASSERT_EQ(original.last_result()->clusters.size(), 4u);
  Result<ClustererState> snapshot =
      ParseState(SerializeState(CaptureState(original)));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto restored = RestoreClusterer(&corpus_, Options(2), *snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string before = SerializeState(CaptureState(**restored));

  const auto refused = (*restored)->Step({4, 5}, 30.0);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*restored)->ValidateStepInputs({4, 5}, 30.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SerializeState(CaptureState(**restored)), before);
}

TEST_F(IncrementalClustererTest, StepRejectsADocumentFromAfterTheStepTime) {
  IncrementalClusterer ic(&corpus_, Params(), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  const std::vector<DocId> active_before = ic.model().active_docs();

  // Document 2 is acquired at day 1.0: a step at 0.5 must not take it.
  const auto early = ic.Step({2, 3}, 0.5);
  EXPECT_EQ(early.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ic.model().now(), 0.0);
  EXPECT_EQ(ic.model().active_docs(), active_before);
  EXPECT_FALSE(ic.model().IsActive(2));

  const auto valid = ic.Step({2, 3}, 1.0);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(valid->num_active, 4u);
  EXPECT_EQ(ic.model().now(), 1.0);
}

TEST_F(IncrementalClustererTest, LoggedClusteringIsInstalledOnlyWhenItFits) {
  IncrementalClusterer original(&corpus_, Params(7.0, 60.0), Options());
  ASSERT_TRUE(original.Step({0, 1}, 0.5).ok());
  auto logged = original.Step({2, 3}, 1.5);
  ASSERT_TRUE(logged.ok());
  auto after = original.Step({4, 5}, 30.5);
  ASSERT_TRUE(after.ok());

  // A logged clustering that is not a partition of the active set: one
  // document is both clustered and an outlier.
  ClusteringResult misfit = logged->clustering;
  ASSERT_GT(misfit.TotalAssigned(), 0u);
  for (const std::vector<DocId>& members : misfit.clusters) {
    if (members.empty()) continue;
    misfit.outliers.push_back(members.front());
    break;
  }

  for (const ClusteringResult* candidate : {&logged->clustering, &misfit}) {
    const bool fits = candidate == &logged->clustering;
    IncrementalClusterer replay(&corpus_, Params(7.0, 60.0), Options());
    ASSERT_TRUE(replay.Step({0, 1}, 0.5).ok());
    auto step = replay.Step({2, 3}, 1.5, candidate);
    ASSERT_TRUE(step.ok());
    EXPECT_EQ(step->installed, fits);
    EXPECT_EQ(step->clustering.clusters, logged->clustering.clusters);
    EXPECT_EQ(step->clustering.outliers, logged->clustering.outliers);
    EXPECT_EQ(step->clustering.g, logged->clustering.g);
    EXPECT_EQ(replay.step_count(), 2u);
    // The step after an installed one reseeds exactly as the original.
    auto next = replay.Step({4, 5}, 30.5);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->installed);
    EXPECT_EQ(next->clustering.clusters, after->clustering.clusters);
    EXPECT_EQ(next->clustering.g, after->clustering.g);
  }
}

TEST_F(IncrementalClustererTest, LastResultHoldsOnlyMemberships) {
  // A step's StepResult carries the representatives and avg_sims; the
  // retained previous result holds only what the seed and SerializeState
  // read, after K-means steps and after an installed one alike.
  IncrementalClusterer ic(&corpus_, Params(7.0, 60.0), Options());
  IncrementalClusterer replay(&corpus_, Params(7.0, 60.0), Options());
  const auto expect_memberships_only = [](const IncrementalClusterer& c,
                                          const StepResult& step) {
    ASSERT_TRUE(c.last_result().has_value());
    const ClusteringResult& kept = *c.last_result();
    EXPECT_TRUE(kept.representatives.empty());
    EXPECT_TRUE(kept.avg_sims.empty());
    EXPECT_EQ(kept.clusters, step.clustering.clusters);
    EXPECT_EQ(kept.cluster_ids, step.clustering.cluster_ids);
    EXPECT_EQ(kept.next_cluster_id, step.clustering.next_cluster_id);
    EXPECT_EQ(kept.outliers, step.clustering.outliers);
    EXPECT_EQ(kept.g, step.clustering.g);
    EXPECT_EQ(kept.g_history, step.clustering.g_history);
    EXPECT_EQ(kept.iterations, step.clustering.iterations);
    EXPECT_EQ(kept.converged, step.clustering.converged);
  };
  const std::vector<std::vector<DocId>> batches = {{0, 1}, {2, 3}, {4, 5}};
  const std::vector<DayTime> taus = {0.5, 1.5, 30.5};
  for (size_t i = 0; i < batches.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    auto step = ic.Step(batches[i], taus[i]);
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    EXPECT_FALSE(step->installed);
    EXPECT_EQ(step->clustering.representatives.size(),
              step->clustering.clusters.size());
    EXPECT_EQ(step->clustering.avg_sims.size(),
              step->clustering.clusters.size());
    expect_memberships_only(ic, *step);
    // The replay installs every step's logged clustering.
    auto installed = replay.Step(batches[i], taus[i], &step->clustering);
    ASSERT_TRUE(installed.ok()) << installed.status().ToString();
    EXPECT_TRUE(installed->installed);
    expect_memberships_only(replay, *installed);
    EXPECT_EQ(SerializeState(CaptureState(replay)),
              SerializeState(CaptureState(ic)));
  }
  // The stream's snapshot bytes are pinned: what the clusterer retains
  // between steps must not move them.
  const std::string bytes = SerializeState(CaptureState(ic));
  EXPECT_EQ(bytes.size(), 699u);
  EXPECT_EQ(Crc32c(bytes), 131350582u);
}

TEST_F(IncrementalClustererTest, BatchClustererRebuildsEachTime) {
  BatchClusterer bc(&corpus_, Params(7.0, 14.0), Options().kmeans);
  auto run1 = bc.Run({0, 1, 2, 3}, 1.0);
  ASSERT_TRUE(run1.ok());
  EXPECT_EQ(run1->num_active, 4u);
  // A later run over everything expires the old docs via ε.
  auto run2 = bc.Run({0, 1, 2, 3, 4, 5}, 30.0);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2->expired.size(), 4u);
  EXPECT_EQ(run2->num_active, 2u);
}

TEST_F(IncrementalClustererTest, IncrementalAndBatchAgreeOnActiveSet) {
  IncrementalClusterer ic(&corpus_, Params(7.0, 14.0), Options());
  ASSERT_TRUE(ic.Step({0, 1}, 0.0).ok());
  ASSERT_TRUE(ic.Step({2, 3}, 1.0).ok());
  auto inc = ic.Step({4, 5}, 30.0);
  ASSERT_TRUE(inc.ok());

  BatchClusterer bc(&corpus_, Params(7.0, 14.0), Options().kmeans);
  auto batch = bc.Run({0, 1, 2, 3, 4, 5}, 30.0);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(inc->num_active, batch->num_active);
  for (DocId id : ic.model().active_docs()) {
    EXPECT_NEAR(ic.model().Weight(id), bc.model().Weight(id), 1e-9);
    EXPECT_NEAR(ic.model().PrDoc(id), bc.model().PrDoc(id), 1e-9);
  }
}

}  // namespace
}  // namespace nidc
