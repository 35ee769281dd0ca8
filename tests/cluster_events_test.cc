// The event log's cluster events are a per-step account of the published
// clustering: over a whole stream, every step's cluster_created and
// cluster_vanished events equal the health monitor's clusters_created and
// clusters_vanished, the CLI's 4,096-event ring drops nothing, and both
// scoring paths announce the same sequence.

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/synth/tdt2_like_generator.h"

namespace nidc {
namespace {

// (type, cluster, step) of one announced event.
using Announced = std::tuple<obs::EventType, uint64_t, uint64_t>;

struct StreamRun {
  std::vector<Announced> events;
  uint64_t dropped = 0;
  uint64_t steps = 0;
  uint64_t created = 0;   // Σ health clusters_created
  uint64_t vanished = 0;  // Σ health clusters_vanished
};

// The stream: the TDT2-like corpus at scale 0.05 (seed 20260708), one
// step per day, K = 8, β = 7 and γ = 14 days. Topics end and documents
// expire, so clusters vanish as well as appear: over its 178 steps the
// health monitor counts 38 clusters_created and 31 clusters_vanished.
class ClusterEventsTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.scale = 0.05;
    options.seed = 20260708;
    Tdt2LikeGenerator generator(options);
    auto corpus = generator.Generate();
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = corpus.value().release();
  }
  static void TearDownTestSuite() { delete corpus_; }

  // Streams the corpus under `scoring`, checking each step's cluster
  // events against the health monitor's snapshot of that step.
  static StreamRun Run(ClusterScoring scoring) {
    obs::EventLog log(/*capacity=*/4096);
    obs::ClusterHealthMonitor health;
    IncrementalOptions options;
    options.kmeans.k = 8;
    options.kmeans.seed = 5;
    options.kmeans.scoring = scoring;
    options.events = &log;
    options.health = &health;
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 14.0;
    IncrementalClusterer clusterer(corpus_, params, options);

    StreamRun run;
    const DayTime end = corpus_->doc(corpus_->size() - 1).time + 1.0;
    DocumentStream stream(corpus_, 0.0, end, 1.0);
    size_t seen = 0;
    while (auto batch = stream.Next()) {
      const Result<StepResult> step =
          clusterer.Step(batch->docs, batch->end);
      if (!step.ok()) {
        EXPECT_EQ(step.status().code(), StatusCode::kFailedPrecondition);
        continue;
      }
      const obs::HealthSnapshot snapshot = health.snapshot();
      const std::vector<obs::Event> events = log.Recent();
      uint64_t created = 0;
      uint64_t vanished = 0;
      uint64_t last_id = 0;
      for (size_t i = seen; i < events.size(); ++i) {
        const obs::Event& event = events[i];
        EXPECT_EQ(event.step, snapshot.step);
        // Ascending id order within a step.
        if (i > seen) {
          EXPECT_GT(event.cluster_id, last_id);
        }
        last_id = event.cluster_id;
        if (event.type == obs::EventType::kClusterCreated) ++created;
        if (event.type == obs::EventType::kClusterVanished) ++vanished;
        run.events.emplace_back(event.type, event.cluster_id, event.step);
      }
      seen = events.size();
      EXPECT_EQ(created, snapshot.clusters_created)
          << "step " << snapshot.step;
      EXPECT_EQ(vanished, snapshot.clusters_vanished)
          << "step " << snapshot.step;
      run.created += snapshot.clusters_created;
      run.vanished += snapshot.clusters_vanished;
      ++run.steps;
    }
    run.dropped = log.dropped();
    return run;
  }

  static Corpus* corpus_;
};

Corpus* ClusterEventsTest::corpus_ = nullptr;

TEST_F(ClusterEventsTest, EventsAgreeWithHealthAndNeverDrop) {
  const StreamRun run = Run(ClusterScoring::kSlotted);
  ASSERT_GT(run.steps, 100u);
  // The stream exercises both kinds of event.
  EXPECT_GT(run.created, 8u);
  EXPECT_GT(run.vanished, 0u);
  EXPECT_EQ(run.events.size(), run.created + run.vanished);
  EXPECT_EQ(run.dropped, 0u);
}

TEST_F(ClusterEventsTest, BothScoringPathsAnnounceTheSameSequence) {
  const StreamRun slotted = Run(ClusterScoring::kSlotted);
  const StreamRun merge = Run(ClusterScoring::kMerge);
  EXPECT_GT(slotted.vanished, 0u);
  EXPECT_EQ(slotted.events, merge.events);
}

}  // namespace
}  // namespace nidc
