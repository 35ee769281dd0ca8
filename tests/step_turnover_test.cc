// A step's turnover is computed once, by DiffSteps, and both the event log
// and the health monitor read it. The diff is checked by hand here, and on
// a stream whose step 40 is installed from a twin run's outcome: the
// installed step is no baseline, the events and the monitor agree at
// every step, and the next run mints ids no earlier step published.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/synth/tdt2_like_generator.h"

namespace nidc {
namespace {

// A clustering of `clusters`, carrying `ids` (none: an installed or
// restored result).
ClusteringResult Clustering(std::vector<std::vector<DocId>> clusters,
                            std::vector<uint64_t> ids) {
  ClusteringResult result;
  result.clusters = std::move(clusters);
  result.cluster_ids = std::move(ids);
  return result;
}

TEST(StepTurnoverTest, ChurnIsHandComputable) {
  const ClusteringResult before = Clustering({{0, 1}, {2, 3}}, {0, 1});
  // Doc 1 moves from cluster 0 to cluster 1; docs 0, 2, 3 stay. Doc 4 is
  // new and must not count toward the churn basis.
  const ClusteringResult after = Clustering({{0}, {1, 2, 3, 4}}, {0, 1});
  const obs::StepTurnover turnover = DiffSteps(&before, after, 0, 5);
  EXPECT_TRUE(turnover.has_previous);
  EXPECT_EQ(turnover.docs_tracked, 4u);
  EXPECT_EQ(turnover.docs_moved, 1u);
  EXPECT_DOUBLE_EQ(static_cast<double>(turnover.docs_moved) /
                       static_cast<double>(turnover.docs_tracked),
                   0.25);
  EXPECT_TRUE(turnover.created.empty());
  EXPECT_TRUE(turnover.vanished.empty());
}

// (docs tracked, docs moved) counted through a hash map of doc → cluster
// id, the representation the dense array replaced.
std::pair<size_t, size_t> MapChurn(const ClusteringResult& before,
                                   const ClusteringResult& after) {
  std::unordered_map<DocId, uint64_t> previous;
  for (size_t p = 0; p < before.clusters.size(); ++p) {
    for (DocId doc : before.clusters[p]) {
      previous[doc] = before.cluster_ids[p];
    }
  }
  size_t tracked = 0;
  size_t moved = 0;
  for (size_t p = 0; p < after.clusters.size(); ++p) {
    for (DocId doc : after.clusters[p]) {
      const auto it = previous.find(doc);
      if (it == previous.end()) continue;
      ++tracked;
      moved += it->second != after.cluster_ids[p];
    }
  }
  return {tracked, moved};
}

TEST(StepTurnoverTest, ChurnMatchesTheMapCount) {
  // Unsorted members; docs 1, 3, 4, 8 and 15 are in both steps, 3 and 4
  // change cluster, and 9, 20 leave while 22, 30, 50 and 60 arrive.
  const ClusteringResult first =
      Clustering({{9, 3, 15, 1}, {20, 8, 4}}, {7, 2});
  const ClusteringResult second =
      Clustering({{30, 3, 8}, {22, 15, 1}, {60, 4, 50}}, {2, 7, 11});
  const auto [tracked, moved] = MapChurn(first, second);
  ASSERT_EQ(tracked, 5u);
  ASSERT_EQ(moved, 2u);

  const obs::StepTurnover turnover = DiffSteps(&first, second, 0, 61);
  EXPECT_EQ(turnover.docs_tracked, tracked);
  EXPECT_EQ(turnover.docs_moved, moved);
  EXPECT_DOUBLE_EQ(static_cast<double>(turnover.docs_moved) /
                       static_cast<double>(turnover.docs_tracked),
                   2.0 / 5.0);
}

TEST(StepTurnoverTest, CreatedAndVanishedAreThePublishedIdsDiff) {
  // Ids 0 and 1 publish; next, 0 survives, 1 is gone, 5 is new, and the
  // empty cluster 9 publishes nothing.
  const ClusteringResult before = Clustering({{0, 1}, {2, 3}}, {0, 1});
  const ClusteringResult after =
      Clustering({{0, 1}, {}, {2, 3}}, {0, 9, 5});
  const obs::StepTurnover turnover = DiffSteps(&before, after, 0, 4);
  EXPECT_TRUE(turnover.has_previous);
  EXPECT_EQ(turnover.created, std::vector<uint64_t>({5}));
  EXPECT_EQ(turnover.vanished, std::vector<uint64_t>({1}));
  EXPECT_EQ(turnover.docs_tracked, 4u);
  EXPECT_EQ(turnover.docs_moved, 2u);
}

TEST(StepTurnoverTest, APredecessorWithoutIdsIsNoBaseline) {
  const ClusteringResult installed = Clustering({{0, 1}, {2, 3}}, {});
  const ClusteringResult after = Clustering({{0, 1}, {2, 3}}, {9, 4});
  const ClusteringResult* const predecessors[] = {&installed, nullptr};
  for (const ClusteringResult* previous : predecessors) {
    const obs::StepTurnover turnover = DiffSteps(previous, after, 0, 4);
    EXPECT_FALSE(turnover.has_previous);
    EXPECT_EQ(turnover.created, std::vector<uint64_t>({4, 9}));
    EXPECT_TRUE(turnover.vanished.empty());
    EXPECT_EQ(turnover.docs_tracked, 0u);
    EXPECT_EQ(turnover.docs_moved, 0u);
  }
}

// The stream of cluster_events_test: the TDT2-like corpus at scale 0.05
// (seed 20260708), one step per day, K = 8, β = 7 and γ = 14 days.
class InstalledStepTurnoverTest : public testing::Test {
 protected:
  static constexpr uint64_t kInstalledStep = 40;

  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.scale = 0.05;
    options.seed = 20260708;
    Tdt2LikeGenerator generator(options);
    auto corpus = generator.Generate();
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = corpus.value().release();
    // The twin: a plain run, whose step-40 outcome the other run installs.
    IncrementalClusterer twin(corpus_, Params(), Options());
    Stream([&](const DocumentBatch& batch) {
      const uint64_t step = twin.step_count();
      if (!twin.Step(batch.docs, batch.end).ok()) return;
      if (step == kInstalledStep) {
        logged_ = new ClusteringResult(*twin.last_result());
      }
    });
    ASSERT_NE(logged_, nullptr);
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete logged_;
  }

  static ForgettingParams Params() {
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 14.0;
    return params;
  }

  static IncrementalOptions Options() {
    IncrementalOptions options;
    options.kmeans.k = 8;
    options.kmeans.seed = 5;
    return options;
  }

  template <typename Fn>
  static void Stream(Fn&& on_batch) {
    const DayTime end = corpus_->doc(corpus_->size() - 1).time + 1.0;
    DocumentStream stream(corpus_, 0.0, end, 1.0);
    while (auto batch = stream.Next()) on_batch(*batch);
  }

  // Steps `clusterer` through one batch, installing the twin's outcome at
  // step 40. Returns the step's result, or null when the window was empty.
  static std::optional<StepResult> Step(IncrementalClusterer& clusterer,
                                        const DocumentBatch& batch) {
    const bool install = clusterer.step_count() == kInstalledStep;
    Result<StepResult> step =
        clusterer.Step(batch.docs, batch.end, install ? logged_ : nullptr);
    if (!step.ok()) {
      EXPECT_EQ(step.status().code(), StatusCode::kFailedPrecondition);
      return std::nullopt;
    }
    EXPECT_EQ(step->installed, install);
    return std::move(step).value();
  }

  static Corpus* corpus_;
  static ClusteringResult* logged_;
};

Corpus* InstalledStepTurnoverTest::corpus_ = nullptr;
ClusteringResult* InstalledStepTurnoverTest::logged_ = nullptr;

TEST_F(InstalledStepTurnoverTest, HealthAndEventsAgreeThroughAnInstalledStep) {
  obs::EventLog log(/*capacity=*/4096);
  obs::ClusterHealthMonitor health;
  IncrementalOptions options = Options();
  options.events = &log;
  options.health = &health;
  IncrementalClusterer clusterer(corpus_, Params(), options);

  size_t seen = 0;
  bool checked_after_install = false;
  Stream([&](const DocumentBatch& batch) {
    const uint64_t step = clusterer.step_count();
    const std::optional<StepResult> result = Step(clusterer, batch);
    if (!result) return;
    const std::vector<obs::Event> events = log.Recent();
    if (result->installed) {
      // An installed step announces nothing and feeds the monitor nothing.
      EXPECT_EQ(events.size(), seen);
      EXPECT_EQ(health.snapshot().step, step - 1);
      return;
    }
    const obs::HealthSnapshot snapshot = health.snapshot();
    ASSERT_EQ(snapshot.step, step);
    uint64_t created = 0;
    uint64_t vanished = 0;
    for (size_t i = seen; i < events.size(); ++i) {
      EXPECT_EQ(events[i].step, step);
      created += events[i].type == obs::EventType::kClusterCreated;
      vanished += events[i].type == obs::EventType::kClusterVanished;
    }
    seen = events.size();
    EXPECT_EQ(created, snapshot.clusters_created) << "step " << step;
    EXPECT_EQ(vanished, snapshot.clusters_vanished) << "step " << step;
    if (step == kInstalledStep + 1) {
      // The installed predecessor carries no ids: no baseline.
      EXPECT_FALSE(snapshot.has_previous);
      EXPECT_EQ(snapshot.clusters_created,
                result->clustering.NumNonEmpty());
      EXPECT_EQ(snapshot.clusters_vanished, 0u);
      EXPECT_EQ(snapshot.docs_tracked, 0u);
      EXPECT_DOUBLE_EQ(snapshot.membership_churn, 0.0);
      EXPECT_DOUBLE_EQ(snapshot.max_drift, 0.0);
      checked_after_install = true;
    } else if (step > 0) {
      EXPECT_TRUE(snapshot.has_previous) << "step " << step;
    }
  });
  EXPECT_TRUE(checked_after_install);
}

TEST_F(InstalledStepTurnoverTest, IdsMintedAfterAnInstalledStepAreFresh) {
  IncrementalClusterer clusterer(corpus_, Params(), Options());
  uint64_t max_published = 0;
  bool checked_after_install = false;
  Stream([&](const DocumentBatch& batch) {
    const uint64_t step = clusterer.step_count();
    const std::optional<StepResult> result = Step(clusterer, batch);
    if (!result || step > kInstalledStep + 1) return;
    const ClusteringResult& clustering = result->clustering;
    if (step == kInstalledStep + 1) {
      // Its seed carries no ids, so the run mints every id it holds.
      ASSERT_EQ(clustering.cluster_ids.size(), clustering.clusters.size());
      for (uint64_t id : clustering.cluster_ids) {
        EXPECT_GT(id, max_published);
      }
      checked_after_install = true;
      return;
    }
    for (size_t p = 0; p < clustering.cluster_ids.size(); ++p) {
      if (!clustering.clusters[p].empty()) {
        max_published = std::max(max_published, clustering.cluster_ids[p]);
      }
    }
  });
  EXPECT_TRUE(checked_after_install);
  EXPECT_GE(max_published, 8u);
}

}  // namespace
}  // namespace nidc
