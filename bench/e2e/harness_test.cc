// Unit tests of the benchmark harness's own logic — the parts whose
// mistakes would silently skew every number it reports.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/shard/ingest.h"
#include "schedule.h"
#include "stats.h"

namespace nidc::e2e {
namespace {

TEST(PercentileSupport, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedQuantile(19), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(99), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(199), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(200), 0.95);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.95);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(QuantileLabel(0.95), "p95");
  EXPECT_EQ(QuantileLabel(0.999), "p99.9");
}

TEST(PercentileSupport, QuantileInterpolatesAndNeverHidesAMiss) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  // A quantile that reaches a refused request reads as a miss, not as a
  // latency interpolated toward it.
  EXPECT_EQ(Quantile({1, 2, kMissedMs}, 0.75), kMissedMs);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, kMissedMs}, 0.5), 2.0);
  const Spread spread = SpreadOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(spread.median, 3.0);
  EXPECT_DOUBLE_EQ(spread.q1, 2.0);
  EXPECT_DOUBLE_EQ(spread.q3, 4.0);
  EXPECT_DOUBLE_EQ(spread.min, 1.0);
  EXPECT_DOUBLE_EQ(spread.max, 5.0);
}

TEST(PercentileSupport, MedianOfPartMediansShrugsOffAShortStall) {
  // Four rounds of 1 ms samples, the last one slowed to 5 ms: the median
  // of the rounds' medians stays where the undisturbed rounds put it.
  std::vector<std::vector<double>> rounds(4);
  std::vector<double> all;
  for (int i = 0; i < 400; ++i) {
    const double ms = i >= 300 ? 5.0 : 1.0 + (i % 3) * 0.1;
    rounds[i / 100].push_back(ms);
    all.push_back(ms);
  }
  EXPECT_NEAR(MedianOfPartMedians(rounds), 1.1, 1e-9);
  // One part is the plain median.
  EXPECT_DOUBLE_EQ(MedianOfPartMedians({all}), Quantile(all, 0.5));
  // Empty parts do not count.
  EXPECT_DOUBLE_EQ(MedianOfPartMedians({{2.0}, {}, {4.0}}), 3.0);
  EXPECT_DOUBLE_EQ(MedianOfPartMedians({{}, {}}), 0.0);
}

TEST(OpenLoop, IntendedTimesFollowTheDayClockStaggeredByTenant) {
  const double day = 0.2;
  EXPECT_DOUBLE_EQ(IntendedOffset(10, 10, 0, 8, day), 0.0);
  EXPECT_DOUBLE_EQ(IntendedOffset(12, 10, 3, 8, day), 2 * 0.2 + 3 * 0.2 / 8);
  // Within a day tenants go in order, and the last tenant of a day still
  // precedes the first tenant of the next.
  for (size_t t = 1; t < 8; ++t) {
    EXPECT_LT(IntendedOffset(11, 10, t - 1, 8, day),
              IntendedOffset(11, 10, t, 8, day));
  }
  EXPECT_LT(IntendedOffset(11, 10, 7, 8, day),
            IntendedOffset(12, 10, 0, 8, day));
}

TEST(OpenLoop, LatenessCountsOnlySendsAfterTheIntendedTime) {
  EXPECT_DOUBLE_EQ(Lateness(1.0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(Lateness(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Lateness(1.0, 1.25), 0.25);
}

TEST(WindowAttribution, TheNextBatchClosesTheWindow) {
  // Batches of days 3, 4, 7, 8 and 9: intended send, step of the batch's
  // window, first request refused.
  const std::vector<BatchTiming> feed = {
      {1.0, 1.25, false},
      {1.2, 1.85, false},  // day 4: its window closes only at the day-7 batch
      {1.8, 2.10, false},
      {2.0, 2.50, true},   // refused: the window it closes is a miss
      {2.2, -1.0, false},  // last: nothing closes its window
  };
  const std::vector<double> fresh = FreshSamplesMs(feed);
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_NEAR(fresh[0], 50.0, 1e-9);   // 1.25 - 1.2
  EXPECT_NEAR(fresh[1], 50.0, 1e-9);   // 1.85 - 1.8
  EXPECT_EQ(fresh[2], kMissedMs);      // closer refused
  EXPECT_NEAR(fresh[3], 300.0, 1e-9);  // 2.5 - 2.2
  // A window that was never stepped is a miss too.
  EXPECT_EQ(FreshSamplesMs({{0.0, -1.0, false}, {0.1, 0.2, false}}),
            std::vector<double>{kMissedMs});
  EXPECT_TRUE(FreshSamplesMs({{0.0, 0.5, false}}).empty());
}

TEST(BatchSplitting, BodiesStayUnderTheCapAndKeepEveryDocument) {
  std::vector<RawDocument> docs;
  for (int i = 0; i < 120; ++i) {
    RawDocument doc;
    doc.time = 5.0 + i / 200.0;
    doc.text = std::string(900 + i, 'a' + i % 26);
    docs.push_back(doc);
  }
  const std::vector<std::string> bodies = SplitBodies(docs, kMaxBatchBytes);
  ASSERT_GT(bodies.size(), 1u);
  std::string joined;
  size_t total = 0;
  for (const std::string& body : bodies) {
    EXPECT_LE(body.size(), kMaxBatchBytes);
    auto parsed = shard::ParseIngestJsonl(body);
    ASSERT_TRUE(parsed.ok());
    total += parsed->size();
    joined += body;
  }
  EXPECT_EQ(total, docs.size());
  EXPECT_EQ(joined, shard::FormatIngestJsonl(docs));

  // A document larger than the cap still travels, alone.
  std::vector<RawDocument> big(2);
  big[0].text = std::string(kMaxBatchBytes + 10, 'x');
  big[1].text = "small";
  big[1].time = 1.0;
  EXPECT_EQ(SplitBodies(big, kMaxBatchBytes).size(), 2u);
}

TEST(Pinning, EveryTenantRidesOneConnection) {
  for (size_t t = 0; t < 64; ++t) {
    EXPECT_EQ(ConnectionOf(t, kIngestConnections), t % kIngestConnections);
    EXPECT_LT(ConnectionOf(t, kIngestConnections), kIngestConnections);
  }
  // Eight tenants spread 3/3/2 over the three ingest connections.
  std::vector<int> load(kIngestConnections, 0);
  for (size_t t = 0; t < 8; ++t) ++load[ConnectionOf(t, kIngestConnections)];
  EXPECT_EQ(load, (std::vector<int>{3, 3, 2}));
}

TEST(Feeds, DayBatchesCoverTheFeedInOrder) {
  const Workload* workload = FindWorkload("trickle64");
  ASSERT_NE(workload, nullptr);
  const Plan plan = MakePlan(*workload, 12.0, false);
  EXPECT_EQ(plan.open_begin, workload->warm_days);
  EXPECT_EQ(plan.OpenBegin(0), plan.open_begin);
  EXPECT_EQ(plan.rounds, 4);
  EXPECT_GE(plan.open_days, 2);
  EXPECT_GE(plan.drain_days, 2);
  // The rounds tile [open_begin, end_day) inside the corpus's 180 days,
  // even for a run far longer than the corpus allows.
  EXPECT_EQ(plan.OpenBegin(1), plan.DrainBegin(0) + plan.drain_days);
  EXPECT_EQ(plan.end_day, plan.OpenBegin(plan.rounds));
  EXPECT_LE(plan.end_day, 178);
  EXPECT_LE(MakePlan(*workload, 600.0, false).end_day, 178);
  const std::vector<DayBatch> feed = MakeFeed(*workload, 7, 3, plan.end_day);
  ASSERT_FALSE(feed.empty());
  int previous = -1;
  for (const DayBatch& batch : feed) {
    EXPECT_GT(batch.day, previous);
    EXPECT_LT(batch.day, plan.end_day);
    previous = batch.day;
    size_t docs = 0;
    for (size_t i = 0; i < batch.bodies.size(); ++i) {
      auto parsed = shard::ParseIngestJsonl(batch.bodies[i]);
      ASSERT_TRUE(parsed.ok());
      for (const RawDocument& doc : *parsed) {
        EXPECT_GE(doc.time, batch.day);
        EXPECT_LT(doc.time, batch.day + 1);
      }
      docs += parsed->size();
    }
    EXPECT_EQ(docs, batch.docs);
  }
  // Same seed, same feed.
  const std::vector<DayBatch> again = MakeFeed(*workload, 7, 3, plan.end_day);
  ASSERT_EQ(again.size(), feed.size());
  EXPECT_EQ(again.back().bodies, feed.back().bodies);
}

}  // namespace
}  // namespace nidc::e2e
