#include "nidc/obs/event_log.h"

#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "temp_path.h"

namespace nidc {
namespace {

obs::Event CreatedEvent(uint64_t cluster) {
  obs::Event event;
  event.type = obs::EventType::kClusterCreated;
  event.cluster_id = cluster;
  return event;
}

TEST(EventLogTest, EmitAssignsSequenceAndStep) {
  obs::EventLog log(8);
  log.SetStep(7);
  log.Emit(CreatedEvent(1));
  log.Emit(CreatedEvent(2));
  const std::vector<obs::Event> events = log.Recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sequence, 0u);
  EXPECT_EQ(events[1].sequence, 1u);
  EXPECT_EQ(events[0].step, 7u);
  EXPECT_EQ(events[1].step, 7u);
  EXPECT_GE(events[1].seconds, events[0].seconds);
}

TEST(EventLogTest, RingWrapDropsOldestAndCounts) {
  obs::EventLog log(4);
  for (uint64_t i = 0; i < 6; ++i) log.Emit(CreatedEvent(i));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_emitted(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<obs::Event> events = log.Recent();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the two oldest (clusters 0, 1) are gone.
  EXPECT_EQ(events.front().cluster_id, 2u);
  EXPECT_EQ(events.back().cluster_id, 5u);
}

TEST(EventLogTest, RecentCapsTheCount) {
  obs::EventLog log(8);
  for (uint64_t i = 0; i < 5; ++i) log.Emit(CreatedEvent(i));
  const std::vector<obs::Event> events = log.Recent(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cluster_id, 3u);
  EXPECT_EQ(events[1].cluster_id, 4u);
}

TEST(EventLogTest, PublishesCountersWhenRegistrySupplied) {
  obs::MetricsRegistry registry;
  obs::EventLog log(2, &registry);
  // Counters exist (at zero) before any emission — snapshots taken early
  // still carry the events.* family.
  EXPECT_EQ(registry.GetCounter("events.emitted")->Value(), 0u);
  for (uint64_t i = 0; i < 3; ++i) log.Emit(CreatedEvent(i));
  EXPECT_EQ(registry.GetCounter("events.emitted")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("events.dropped")->Value(), 1u);
}

TEST(EventLogTest, RenderJsonOmitsInapplicableFields) {
  obs::Event vanished;
  vanished.type = obs::EventType::kClusterVanished;
  vanished.cluster_id = 42;
  const std::string json = obs::RenderEventJson(vanished);
  EXPECT_NE(json.find("\"type\":\"cluster_vanished\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\":42"), std::string::npos);
  EXPECT_EQ(json.find("generation"), std::string::npos);
  EXPECT_EQ(json.find("doc"), std::string::npos);

  obs::Event checkpoint;
  checkpoint.type = obs::EventType::kCheckpointCommitted;
  checkpoint.detail = 9;
  const std::string ckpt_json = obs::RenderEventJson(checkpoint);
  EXPECT_NE(ckpt_json.find("\"generation\":9"), std::string::npos);
  EXPECT_EQ(ckpt_json.find("cluster"), std::string::npos);
}

TEST(EventLogTest, EveryTypeHasAStableName) {
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kClusterCreated),
               "cluster_created");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kClusterVanished),
               "cluster_vanished");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kCheckpointCommitted),
               "checkpoint_committed");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kWalRotated),
               "wal_rotated");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kMetricAnomaly),
               "metric_anomaly");
  EXPECT_STREQ(obs::EventTypeName(obs::EventType::kSloBurn), "slo_burn");
}

TEST(EventLogTest, MetricAnomalyRendersSeriesValueAndZscore) {
  obs::Event anomaly;
  anomaly.type = obs::EventType::kMetricAnomaly;
  anomaly.label = "kmeans.moves";
  anomaly.value = 512.0;
  anomaly.zscore = 6.25;
  const std::string json = obs::RenderEventJson(anomaly);
  const Result<obs::JsonValue> parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("type")->string_value, "metric_anomaly");
  EXPECT_EQ(parsed->Find("metric")->string_value, "kmeans.moves");
  EXPECT_DOUBLE_EQ(parsed->Find("value")->number, 512.0);
  EXPECT_DOUBLE_EQ(parsed->Find("zscore")->number, 6.25);
  // The cluster field stays omitted — the anomaly names a series.
  EXPECT_EQ(json.find("cluster"), std::string::npos);
  EXPECT_EQ(json.find("doc"), std::string::npos);
}

TEST(EventLogTest, DroppedCountSurvivesManyWraps) {
  // Regression for the events.dropped exposure: dropped() must equal
  // total_emitted() - retained across arbitrarily many wraps, and the
  // counter must match.
  obs::MetricsRegistry registry;
  obs::EventLog log(8, &registry);
  for (uint64_t i = 0; i < 1000; ++i) log.Emit(CreatedEvent(i));
  EXPECT_EQ(log.total_emitted(), 1000u);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 992u);
  EXPECT_EQ(registry.GetCounter("events.dropped")->Value(), 992u);
  EXPECT_EQ(log.Recent().front().cluster_id, 992u);
}

TEST(EventLogTest, ExportJsonlWritesParseableLines) {
  obs::EventLog log(8);
  log.SetStep(3);
  log.Emit(CreatedEvent(10));
  obs::Event vanished;
  vanished.type = obs::EventType::kClusterVanished;
  vanished.cluster_id = 11;
  log.Emit(vanished);

  const std::string path = TestTempPath("event_log_test.jsonl");
  ASSERT_TRUE(log.ExportJsonl(path).ok());

  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const Result<obs::JsonValue> parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object());
    EXPECT_NE(parsed->Find("type"), nullptr);
    EXPECT_NE(parsed->Find("seq"), nullptr);
    EXPECT_NE(parsed->Find("step"), nullptr);
  }
  EXPECT_EQ(lines, 2u);
}

TEST(EventLogTest, ConcurrentEmittersKeepSequenceDense) {
  obs::EventLog log(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) log.Emit(CreatedEvent(i));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.total_emitted(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<obs::Event> events = log.Recent();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
  }
}

}  // namespace
}  // namespace nidc
