#include "nidc/obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/event_log.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {
namespace {

// Brute-force nearest-rank percentile, the reference the store's windows
// are checked against.
double BruteForcePercentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

TimeSeriesStore::Options SmallOptions() {
  TimeSeriesStore::Options options;
  options.raw_capacity = 4;
  options.mid_capacity = 2;
  options.coarse_capacity = 1;
  options.mid_bucket = 4;
  options.coarse_bucket = 8;
  return options;
}

TEST(TimeSeriesStoreTest, RawWindowsKeepPerStepValuesUpToCapacity) {
  TimeSeriesStore store(SmallOptions());
  for (uint64_t step = 0; step < 10; ++step) {
    store.ObserveSample("m", step, static_cast<double>(step + 1));
  }
  // raw_capacity = 4: only the 4 newest 1-step windows survive.
  const std::vector<SeriesWindow> raw = store.Series("m", 1);
  ASSERT_EQ(raw.size(), 4u);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].start_step, 6u + i);
    EXPECT_EQ(raw[i].count, 1u);
    const double value = static_cast<double>(7 + i);
    EXPECT_DOUBLE_EQ(raw[i].min, value);
    EXPECT_DOUBLE_EQ(raw[i].max, value);
    EXPECT_DOUBLE_EQ(raw[i].mean, value);
    EXPECT_DOUBLE_EQ(raw[i].p50, value);
    EXPECT_DOUBLE_EQ(raw[i].p99, value);
  }
}

TEST(TimeSeriesStoreTest, DownsampledWindowMathIsExact) {
  TimeSeriesStore store(SmallOptions());
  for (uint64_t step = 0; step < 10; ++step) {
    store.ObserveSample("m", step, static_cast<double>(step + 1));
  }
  // mid_bucket = 4: windows [1..4], [5..8] complete, [9,10] pending.
  const std::vector<SeriesWindow> mid = store.Series("m", 4);
  ASSERT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid[0].start_step, 0u);
  EXPECT_EQ(mid[0].count, 4u);
  EXPECT_DOUBLE_EQ(mid[0].min, 1.0);
  EXPECT_DOUBLE_EQ(mid[0].max, 4.0);
  EXPECT_DOUBLE_EQ(mid[0].mean, 2.5);
  EXPECT_DOUBLE_EQ(mid[0].p50, 2.0);  // sorted[ceil(0.5*4)-1] = sorted[1]
  EXPECT_DOUBLE_EQ(mid[0].p99, 4.0);  // sorted[ceil(0.99*4)-1] = sorted[3]
  EXPECT_EQ(mid[1].start_step, 4u);
  EXPECT_DOUBLE_EQ(mid[1].mean, 6.5);
  // The partially filled pending bucket is exposed as a shorter window.
  EXPECT_EQ(mid[2].start_step, 8u);
  EXPECT_EQ(mid[2].count, 2u);
  EXPECT_DOUBLE_EQ(mid[2].min, 9.0);
  EXPECT_DOUBLE_EQ(mid[2].max, 10.0);

  // coarse_bucket = 8: one complete window of [1..8] plus pending [9,10].
  const std::vector<SeriesWindow> coarse = store.Series("m", 8);
  ASSERT_EQ(coarse.size(), 2u);
  EXPECT_EQ(coarse[0].count, 8u);
  EXPECT_DOUBLE_EQ(coarse[0].mean, 4.5);
  EXPECT_DOUBLE_EQ(coarse[0].p50, 4.0);
  EXPECT_DOUBLE_EQ(coarse[0].p99, 8.0);

  // Unknown names and resolutions yield empty (Has distinguishes).
  EXPECT_TRUE(store.Series("m", 5).empty());
  EXPECT_TRUE(store.Series("nope", 1).empty());
  EXPECT_TRUE(store.Has("m"));
  EXPECT_FALSE(store.Has("nope"));
  const std::vector<size_t> resolutions = store.Resolutions();
  ASSERT_EQ(resolutions.size(), 3u);
  EXPECT_EQ(resolutions[0], 1u);
  EXPECT_EQ(resolutions[1], 4u);
  EXPECT_EQ(resolutions[2], 8u);
}

TEST(TimeSeriesStoreTest, PercentilesMatchBruteForceOnIrregularData) {
  TimeSeriesStore::Options options;
  options.mid_bucket = 100;
  TimeSeriesStore store(options);
  // Deterministic scrambled values (LCG), one mid window of all 100.
  std::vector<double> values;
  uint64_t state = 12345;
  for (uint64_t step = 0; step < 100; ++step) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double value = static_cast<double>(state % 1000) / 7.0;
    values.push_back(value);
    store.ObserveSample("m", step, value);
  }
  const std::vector<SeriesWindow> mid = store.Series("m", 100);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].count, 100u);
  EXPECT_DOUBLE_EQ(mid[0].p50, BruteForcePercentile(values, 0.50));
  EXPECT_DOUBLE_EQ(mid[0].p99, BruteForcePercentile(values, 0.99));
  EXPECT_DOUBLE_EQ(mid[0].min, *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(mid[0].max, *std::max_element(values.begin(), values.end()));
}

TEST(TimeSeriesStoreTest, AnomalyDetectorFiresAtHandComputedZScore) {
  TimeSeriesStore::Options options;
  options.anomaly_alpha = 0.5;
  options.anomaly_threshold = 2.0;
  options.anomaly_min_samples = 3;
  EventLog events(16);
  options.events = &events;
  TimeSeriesStore store(options);

  // EWMA recurrences with alpha = 0.5 feeding 10,10,10,10:
  //   mean: 0 -> 5 -> 7.5 -> 8.75 -> 9.375
  //   var:  0 -> 25 -> 18.75 -> 10.9375 -> 5.859375
  // The 4th sample (value 10, prior mean 8.75, prior var 10.9375) gives
  // z = 1.25/sqrt(10.9375) = 0.378 — no firing.
  for (uint64_t step = 0; step < 4; ++step) {
    store.ObserveSample("m", step, 10.0);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);

  // The 5th sample (value 30) is tested against mean 9.375, var 5.859375:
  // z = 20.625/sqrt(5.859375) = 8.52 > 2 — fires exactly once.
  store.ObserveSample("m", 4, 30.0);
  EXPECT_EQ(store.anomalies_fired(), 1u);
  const std::vector<Event> recent = events.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].type, EventType::kMetricAnomaly);
  EXPECT_EQ(recent[0].label, "m");
  EXPECT_DOUBLE_EQ(recent[0].value, 30.0);
  EXPECT_DOUBLE_EQ(recent[0].zscore, 20.625 / std::sqrt(5.859375));
}

TEST(TimeSeriesStoreTest, ConstantSeriesNeverFires) {
  TimeSeriesStore::Options options;
  // With alpha = 1 the mean locks onto the first sample and the variance
  // of a constant series is *exactly* zero from then on — the detector
  // must stay silent instead of dividing by zero, even with a threshold
  // any nonzero z-score would clear.
  options.anomaly_alpha = 1.0;
  options.anomaly_min_samples = 2;
  options.anomaly_threshold = 0.001;
  TimeSeriesStore store(options);
  for (uint64_t step = 0; step < 50; ++step) {
    store.ObserveSample("m", step, 7.0);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);
}

TEST(TimeSeriesStoreTest, WarmupSuppressesEarlyFirings) {
  TimeSeriesStore::Options options;
  options.anomaly_min_samples = 8;
  options.anomaly_threshold = 1.0;
  TimeSeriesStore store(options);
  // Wildly varying values, but fewer than min_samples: never fires.
  for (uint64_t step = 0; step < 7; ++step) {
    store.ObserveSample("m", step, step % 2 == 0 ? 0.0 : 1000.0);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);
}

TEST(TimeSeriesStoreTest, SeriesCapRejectsNewNames) {
  TimeSeriesStore::Options options;
  options.max_series = 2;
  TimeSeriesStore store(options);
  store.ObserveSample("a", 0, 1.0);
  store.ObserveSample("b", 0, 2.0);
  store.ObserveSample("c", 0, 3.0);
  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_TRUE(store.Has("a"));
  EXPECT_TRUE(store.Has("b"));
  EXPECT_FALSE(store.Has("c"));
  // Existing series keep ingesting under the cap.
  store.ObserveSample("a", 1, 4.0);
  EXPECT_EQ(store.Series("a", 1).size(), 2u);
}

TEST(TimeSeriesStoreTest, ObserveStepIngestsCounterDeltasAndGaugeValues) {
  MetricsRegistry registry;
  TimeSeriesStore::Options options;
  options.metrics = &registry;
  TimeSeriesStore store(options);

  Counter* docs_new = registry.GetCounter("step.docs_new");
  Counter* moves = registry.GetCounter("kmeans.moves");
  Gauge* gauge = registry.GetGauge("term_stats.tdw");
  Histogram* hist = registry.GetHistogram("kmeans.sweep_ms", {1.0, 10.0});

  docs_new->Increment(10);
  moves->Increment(5);
  gauge->Set(3.5);
  hist->Observe(1.0);
  hist->Observe(3.0);
  store.ObserveStepAt(0, 100.0);

  docs_new->Increment(20);
  moves->Increment(1);
  gauge->Set(7.0);
  store.ObserveStepAt(1, 102.0);

  // Counters become per-step deltas (first sight = the full value).
  const std::vector<SeriesWindow> d = store.Series("step.docs_new", 1);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].mean, 10.0);
  EXPECT_DOUBLE_EQ(d[1].mean, 20.0);
  // Gauges stay raw.
  const std::vector<SeriesWindow> g = store.Series("term_stats.tdw", 1);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g[0].mean, 3.5);
  EXPECT_DOUBLE_EQ(g[1].mean, 7.0);
  // Histograms feed the per-step mean of *new* observations; the silent
  // second step contributes no window.
  const std::vector<SeriesWindow> h = store.Series("kmeans.sweep_ms.mean", 1);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_DOUBLE_EQ(h[0].mean, 2.0);

  // Derived series: docs/sec needs a prior wall reading (step 1 only:
  // 20 docs over 2 injected seconds); moves_per_step mirrors the delta.
  const std::vector<SeriesWindow> rate =
      store.Series("timeseries.docs_per_sec", 1);
  ASSERT_EQ(rate.size(), 1u);
  EXPECT_EQ(rate[0].start_step, 1u);
  EXPECT_DOUBLE_EQ(rate[0].mean, 10.0);
  const std::vector<SeriesWindow> mps =
      store.Series("timeseries.moves_per_step", 1);
  ASSERT_EQ(mps.size(), 2u);
  EXPECT_DOUBLE_EQ(mps[0].mean, 5.0);
  EXPECT_DOUBLE_EQ(mps[1].mean, 1.0);

  // The store's own instruments must not feed back into themselves.
  EXPECT_FALSE(store.Has("timeseries.observations"));
  EXPECT_FALSE(store.Has("timeseries.tracked"));
  EXPECT_EQ(store.observations(), 2u);
}

TEST(TimeSeriesStoreTest, DurabilityLagDerives) {
  MetricsRegistry registry;
  TimeSeriesStore::Options options;
  options.metrics = &registry;
  TimeSeriesStore store(options);

  Counter* wal = registry.GetCounter("store.wal_records");
  Counter* snapshots = registry.GetCounter("store.snapshots");

  wal->Increment(5);
  store.ObserveStepAt(0, 10.0);
  // 5 WAL records since the (never-seen) last snapshot.
  std::vector<SeriesWindow> lag = store.Series("timeseries.durability_lag", 1);
  ASSERT_EQ(lag.size(), 1u);
  EXPECT_DOUBLE_EQ(lag[0].mean, 5.0);

  // A snapshot commit resets the lag origin to the WAL high-water mark.
  wal->Increment(4);  // 9 total
  snapshots->Increment();
  store.ObserveStepAt(1, 11.0);
  lag = store.Series("timeseries.durability_lag", 1);
  ASSERT_EQ(lag.size(), 2u);
  EXPECT_DOUBLE_EQ(lag[1].mean, 0.0);

  wal->Increment(3);  // 12 total, no new snapshot
  store.ObserveStepAt(2, 12.0);
  lag = store.Series("timeseries.durability_lag", 1);
  ASSERT_EQ(lag.size(), 3u);
  EXPECT_DOUBLE_EQ(lag[2].mean, 3.0);
}

TEST(TimeSeriesStoreTest, PublishesItsOwnInstruments) {
  MetricsRegistry registry;
  TimeSeriesStore::Options options;
  options.metrics = &registry;
  TimeSeriesStore store(options);
  // The timeseries.* family exists (at zero) before the first step, so
  // early registry snapshots already validate.
  EXPECT_EQ(registry.GetCounter("timeseries.observations")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("timeseries.anomalies")->Value(), 0u);
  registry.GetCounter("kmeans.moves")->Increment();
  store.ObserveStepAt(0, 1.0);
  EXPECT_EQ(registry.GetCounter("timeseries.observations")->Value(), 1u);
}

TEST(TimeSeriesStoreTest, RenderJsonRoundTripsThroughParser) {
  TimeSeriesStore store(SmallOptions());
  for (uint64_t step = 0; step < 6; ++step) {
    store.ObserveSample("kmeans.moves", step, static_cast<double>(step));
  }
  const Result<JsonValue> list = ParseJson(RenderTimeSeriesListJson(store));
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list->Find("series")->is_array());
  EXPECT_EQ(list->Find("series")->array.size(), 1u);
  EXPECT_EQ(list->Find("series")->array[0].string_value, "kmeans.moves");
  EXPECT_EQ(list->Find("resolutions")->array.size(), 3u);

  const Result<JsonValue> series =
      ParseJson(RenderTimeSeriesJson(store, "kmeans.moves", 1));
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->Find("metric")->string_value, "kmeans.moves");
  EXPECT_DOUBLE_EQ(series->Find("res")->number, 1.0);
  const JsonValue* windows = series->Find("windows");
  ASSERT_TRUE(windows->is_array());
  ASSERT_EQ(windows->array.size(), 4u);  // raw capacity
  EXPECT_NE(windows->array[0].Find("p99"), nullptr);
}

}  // namespace
}  // namespace nidc::obs
