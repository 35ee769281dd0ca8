#include "nidc/obs/timeseries.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
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

constexpr size_t kRaw = TimeSeriesStore::kCapacities[0];
constexpr size_t kMid = TimeSeriesStore::kResolutions[1];
constexpr size_t kCoarse = TimeSeriesStore::kResolutions[2];

TEST(TimeSeriesStoreTest, RawWindowsKeepPerStepValuesUpToCapacity) {
  TimeSeriesStore store;
  for (uint64_t step = 0; step < kRaw + 10; ++step) {
    store.ObserveSample("m", step, static_cast<double>(step + 1));
  }
  // Only the newest kRaw (512) 1-step windows survive: steps 10 onward.
  const std::vector<SeriesWindow> raw = store.Series("m", 1);
  ASSERT_EQ(raw.size(), kRaw);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].start_step, 10u + i);
    EXPECT_EQ(raw[i].count, 1u);
    const double value = static_cast<double>(11 + i);
    EXPECT_DOUBLE_EQ(raw[i].min, value);
    EXPECT_DOUBLE_EQ(raw[i].max, value);
    EXPECT_DOUBLE_EQ(raw[i].mean, value);
    EXPECT_DOUBLE_EQ(raw[i].p50, value);
    EXPECT_DOUBLE_EQ(raw[i].p99, value);
  }
}

TEST(TimeSeriesStoreTest, DownsampledWindowMathIsExact) {
  TimeSeriesStore store;
  // Values 1..274 at steps 0..273: 17 whole 16-step windows plus 2
  // pending samples, one whole 256-step window plus 18 pending.
  for (uint64_t step = 0; step < kCoarse + 18; ++step) {
    store.ObserveSample("m", step, static_cast<double>(step + 1));
  }
  const std::vector<SeriesWindow> mid = store.Series("m", kMid);
  ASSERT_EQ(mid.size(), 18u);
  EXPECT_EQ(mid[0].start_step, 0u);
  EXPECT_EQ(mid[0].count, 16u);
  EXPECT_DOUBLE_EQ(mid[0].min, 1.0);
  EXPECT_DOUBLE_EQ(mid[0].max, 16.0);
  EXPECT_DOUBLE_EQ(mid[0].mean, 8.5);
  EXPECT_DOUBLE_EQ(mid[0].p50, 8.0);   // sorted[ceil(0.5*16)-1] = sorted[7]
  EXPECT_DOUBLE_EQ(mid[0].p99, 16.0);  // sorted[ceil(0.99*16)-1] = [15]
  EXPECT_EQ(mid[1].start_step, 16u);
  EXPECT_DOUBLE_EQ(mid[1].mean, 24.5);
  // The partially filled pending bucket is exposed as a shorter window.
  EXPECT_EQ(mid[17].start_step, 272u);
  EXPECT_EQ(mid[17].count, 2u);
  EXPECT_DOUBLE_EQ(mid[17].min, 273.0);
  EXPECT_DOUBLE_EQ(mid[17].max, 274.0);

  // One complete window of 1..256 plus the pending 257..274.
  const std::vector<SeriesWindow> coarse = store.Series("m", kCoarse);
  ASSERT_EQ(coarse.size(), 2u);
  EXPECT_EQ(coarse[0].count, 256u);
  EXPECT_DOUBLE_EQ(coarse[0].mean, 128.5);
  EXPECT_DOUBLE_EQ(coarse[0].p50, 128.0);  // sorted[127]
  EXPECT_DOUBLE_EQ(coarse[0].p99, 254.0);  // sorted[ceil(253.44)-1]
  EXPECT_EQ(coarse[1].start_step, 256u);
  EXPECT_EQ(coarse[1].count, 18u);

  // Unknown names and resolutions yield empty (Has distinguishes).
  EXPECT_TRUE(store.Series("m", 5).empty());
  EXPECT_TRUE(store.Series("nope", 1).empty());
  EXPECT_TRUE(store.Has("m"));
  EXPECT_FALSE(store.Has("nope"));
}

TEST(TimeSeriesStoreTest, PercentilesMatchBruteForceOnIrregularData) {
  TimeSeriesStore store;
  // Deterministic scrambled values (LCG), one coarse window of all 256.
  std::vector<double> values;
  uint64_t state = 12345;
  for (uint64_t step = 0; step < kCoarse; ++step) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double value = static_cast<double>(state % 1000) / 7.0;
    values.push_back(value);
    store.ObserveSample("m", step, value);
  }
  const std::vector<SeriesWindow> coarse = store.Series("m", kCoarse);
  ASSERT_EQ(coarse.size(), 1u);
  EXPECT_EQ(coarse[0].count, kCoarse);
  EXPECT_DOUBLE_EQ(coarse[0].p50, BruteForcePercentile(values, 0.50));
  EXPECT_DOUBLE_EQ(coarse[0].p99, BruteForcePercentile(values, 0.99));
  EXPECT_DOUBLE_EQ(coarse[0].min,
                   *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(coarse[0].max,
                   *std::max_element(values.begin(), values.end()));
}

TEST(TimeSeriesStoreTest, AnomalyDetectorFiresAtHandComputedZScore) {
  TimeSeriesStore::Options options;
  EventLog events(16);
  options.events = &events;
  TimeSeriesStore store(options);

  // EWMA recurrences at alpha = 1/4 (exact in binary) from m = v = 0,
  // feeding 10 nine times: m += d/4, v = 3/4 (v + d^2/4), d = 10 - m.
  // The first 8 samples are the warm-up. The 9th is the first tested,
  // against m = 294875/32768, v = 9673374375/1073741824:
  // z = 1.0011/3.0015 = 0.334, silent.
  for (uint64_t step = 0; step < 9; ++step) {
    store.ObserveSample("m", step, 10.0);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);

  // The 10th sample (value 30) is tested against m = 1212305/131072,
  // v = 119308996575/17179869184: z = 20.751/2.6353 = 7.87 > 4, which
  // fires exactly once.
  store.ObserveSample("m", 9, 30.0);
  EXPECT_EQ(store.anomalies_fired(), 1u);
  const std::vector<Event> recent = events.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].type, EventType::kMetricAnomaly);
  EXPECT_EQ(recent[0].label, "m");
  EXPECT_DOUBLE_EQ(recent[0].value, 30.0);
  EXPECT_DOUBLE_EQ(recent[0].zscore,
                   (30.0 - 1212305.0 / 131072.0) /
                       std::sqrt(119308996575.0 / 17179869184.0));
}

TEST(TimeSeriesStoreTest, ConstantSeriesNeverFires) {
  TimeSeriesStore store;
  for (uint64_t step = 0; step < 2000; ++step) {
    // A zero series keeps its variance *exactly* zero: the detector must
    // stay silent instead of dividing by zero.
    store.ObserveSample("zero", step, 0.0);
    // A nonzero constant approaches its mean from below, and its z-score
    // settles at 2/sqrt(3) = 1.15 once the mean stops moving.
    store.ObserveSample("seven", step, 7.0);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);
}

TEST(TimeSeriesStoreTest, WarmupSuppressesEarlyFirings) {
  TimeSeriesStore store;
  // Tenfold growth: every sample after the first sits at z = 22.5..23
  // against its predecessors, far past the threshold of 4, but the first
  // kAnomalyMinSamples (8) are the warm-up.
  double value = 1.0;
  for (uint64_t step = 0; step < TimeSeriesStore::kAnomalyMinSamples;
       ++step, value *= 10.0) {
    store.ObserveSample("m", step, value);
  }
  EXPECT_EQ(store.anomalies_fired(), 0u);
  store.ObserveSample("m", TimeSeriesStore::kAnomalyMinSamples, value);
  EXPECT_EQ(store.anomalies_fired(), 1u);
}

TEST(TimeSeriesStoreTest, SeriesCapRejectsNewNames) {
  TimeSeriesStore store;
  for (size_t i = 0; i < TimeSeriesStore::kMaxSeries; ++i) {
    store.ObserveSample("s" + std::to_string(i), 0, 1.0);
  }
  store.ObserveSample("extra", 0, 3.0);
  EXPECT_EQ(store.num_series(), TimeSeriesStore::kMaxSeries);
  EXPECT_TRUE(store.Has("s0"));
  EXPECT_FALSE(store.Has("extra"));
  // Existing series keep ingesting under the cap.
  store.ObserveSample("s0", 1, 4.0);
  EXPECT_EQ(store.Series("s0", 1).size(), 2u);
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
  TimeSeriesStore store;
  for (uint64_t step = 0; step < 6; ++step) {
    store.ObserveSample("kmeans.moves", step, static_cast<double>(step));
  }
  const Result<JsonValue> list = ParseJson(RenderTimeSeriesListJson(store));
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list->Find("series")->is_array());
  EXPECT_EQ(list->Find("series")->array.size(), 1u);
  EXPECT_EQ(list->Find("series")->array[0].string_value, "kmeans.moves");
  const JsonValue* resolutions = list->Find("resolutions");
  ASSERT_EQ(resolutions->array.size(), 3u);
  EXPECT_DOUBLE_EQ(resolutions->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(resolutions->array[1].number, 16.0);
  EXPECT_DOUBLE_EQ(resolutions->array[2].number, 256.0);

  const Result<JsonValue> series =
      ParseJson(RenderTimeSeriesJson(store, "kmeans.moves", 1));
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->Find("metric")->string_value, "kmeans.moves");
  EXPECT_DOUBLE_EQ(series->Find("res")->number, 1.0);
  const JsonValue* windows = series->Find("windows");
  ASSERT_TRUE(windows->is_array());
  ASSERT_EQ(windows->array.size(), 6u);  // one per step
  EXPECT_NE(windows->array[0].Find("p99"), nullptr);
}

TEST(TimeSeriesStoreTest, ConcurrentObserveAndRender) {
  // The step loop folds registry snapshots in while the introspection
  // thread lists and renders the series: every step must be counted once
  // and every reader must see a consistent store.
  MetricsRegistry registry;
  TimeSeriesStore::Options options;
  options.metrics = &registry;
  TimeSeriesStore store(options);
  Counter* docs_new = registry.GetCounter("step.docs_new");
  Gauge* gauge = registry.GetGauge("term_stats.tdw");
  Histogram* hist = registry.GetHistogram("kmeans.sweep_ms", {1.0, 10.0});
  constexpr uint64_t kSteps = 600;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t step = 0; step < kSteps; ++step) {
      docs_new->Increment(3);
      gauge->Set(static_cast<double>(step));
      hist->Observe(2.0);
      store.ObserveStepAt(step, 100.0 + static_cast<double>(step));
    }
    done.store(true);
  });
  std::thread reader([&] {
    while (!done.load()) {
      for (const std::string& name : store.Names()) {
        for (size_t res : TimeSeriesStore::kResolutions) {
          for (const SeriesWindow& w : store.Series(name, res)) {
            ASSERT_GE(w.count, 1u);
            ASSERT_LE(w.count, res);
          }
          ASSERT_TRUE(ParseJson(RenderTimeSeriesJson(store, name, res)).ok());
        }
      }
      ASSERT_TRUE(ParseJson(RenderTimeSeriesListJson(store)).ok());
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(store.observations(), kSteps);
  EXPECT_EQ(registry.GetCounter("timeseries.observations")->Value(), kSteps);
  const std::vector<SeriesWindow> raw = store.Series("step.docs_new", 1);
  ASSERT_EQ(raw.size(), kRaw);
  EXPECT_EQ(raw.back().start_step, kSteps - 1);
  EXPECT_DOUBLE_EQ(raw.back().mean, 3.0);
  // 37 whole 16-step windows plus the 8 pending steps.
  EXPECT_EQ(store.Series("term_stats.tdw", kMid).size(), 38u);
}

}  // namespace
}  // namespace nidc::obs
