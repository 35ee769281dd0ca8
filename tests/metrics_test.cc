#include "nidc/obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace nidc::obs {
namespace {

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.Value(), 7.0);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (le semantics: bound is inclusive)
  h.Observe(1.0001); // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(100.0);  // bucket 2
  h.Observe(100.5);  // +Inf overflow
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.CumulativeCount(1), 4u);
  EXPECT_EQ(h.CumulativeCount(2), 5u);
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5);
}

TEST(HistogramTest, NegativeAndBelowFirstBound) {
  Histogram h({0.0, 1.0});
  h.Observe(-5.0);
  h.Observe(0.0);
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.TotalCount(), 2u);
}

TEST(MetricsRegistryTest, GetReturnsSameInstrumentForSameName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("steps");
  Counter* b = registry.GetCounter("steps");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, HandlesStayValidAcrossManyRegistrations) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("c0");
  first->Increment(7);
  // Enough registrations to force reallocation in vector-backed storage;
  // the deque-backed registry must keep `first` valid.
  for (int i = 1; i < 200; ++i) {
    const std::string index = std::to_string(i);
    registry.GetCounter("c" + index);
    registry.GetGauge("g" + index);
  }
  EXPECT_EQ(first->Value(), 7u);
  EXPECT_EQ(registry.GetCounter("c0"), first);
}

TEST(MetricsRegistryTest, HistogramBoundsFixedOnFirstRegistration) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {1.0, 2.0});
  Histogram* again = registry.GetHistogram("lat", {5.0, 6.0, 7.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(3);
  registry.GetGauge("alpha")->Set(1.5);
  registry.GetHistogram("mid", {1.0})->Observe(0.5);
  const std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.5);
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(samples[1].buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[1].buckets[0].first, 1.0);
  EXPECT_EQ(samples[1].buckets[0].second, 1u);
  EXPECT_EQ(samples[1].count, 1u);
  EXPECT_DOUBLE_EQ(samples[1].sum, 0.5);
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("parallel.increments");
  Gauge* gauge = registry.GetGauge("parallel.adds");
  Histogram* histogram =
      registry.GetHistogram("parallel.observations", {100.0, 1000.0});

  // Shard workers and HTTP scrapers share one registry: four threads
  // each update a quarter of the items at once.
  constexpr size_t kItems = 10000;
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t * kItems / kThreads; i < (t + 1) * kItems / kThreads;
           ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Observe(static_cast<double>(i % 200));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->Value(), kItems);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kItems));
  EXPECT_EQ(histogram->TotalCount(), kItems);
  // i % 200 spends half its time in [0, 100] (0..100 inclusive = 101 of
  // 200 residues, kItems/200 hits each).
  EXPECT_EQ(histogram->CumulativeCount(0), kItems / 200 * 101);
  EXPECT_EQ(histogram->CumulativeCount(1), kItems);
}

TEST(MetricsRegistryDeathTest, KindMismatchIsFatal) {
  MetricsRegistry registry;
  registry.GetCounter("name");
  EXPECT_DEATH(registry.GetGauge("name"), "registered as a different kind");
}

}  // namespace
}  // namespace nidc::obs
