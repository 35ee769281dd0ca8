#include "nidc/obs/slo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {
namespace {

// Compressed windows so a test can burn through "days" in synthetic time:
// fast pair 10s/60s, slow pair 120s/600s.
SloEngine::Options FastOptions() {
  SloEngine::Options options;
  options.fast_short_seconds = 10.0;
  options.fast_long_seconds = 60.0;
  options.slow_short_seconds = 120.0;
  options.slow_long_seconds = 600.0;
  return options;
}

const SloBurn* FindBurn(const std::vector<SloBurn>& burns,
                        const std::string& tenant,
                        const std::string& objective) {
  for (const SloBurn& burn : burns) {
    if (burn.tenant == tenant && burn.objective == objective) return &burn;
  }
  return nullptr;
}

TEST(SloEngineTest, HealthyTenantDoesNotBurn) {
  SloEngine engine(FastOptions());
  for (int i = 0; i < 100; ++i) {
    engine.ObserveLatency("alpha", 0.01, 1000.0 + i * 0.1);
    engine.ObserveRequest("alpha", /*ok=*/true, 1000.0 + i * 0.1);
  }
  const auto burns = engine.Evaluate(1010.0);
  const SloBurn* latency = FindBurn(burns, "alpha", "latency");
  const SloBurn* availability = FindBurn(burns, "alpha", "availability");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(availability, nullptr);
  EXPECT_FALSE(latency->burning);
  EXPECT_FALSE(availability->burning);
  EXPECT_EQ(latency->bad, 0u);
  EXPECT_TRUE(engine.BurningTenants(1010.0).empty());
  EXPECT_EQ(engine.burn_events(), 0u);
}

TEST(SloEngineTest, SustainedLatencyViolationBurnsBothWindows) {
  SloEngine::Options options = FastOptions();
  options.default_objective.latency_threshold_seconds = 0.1;
  SloEngine engine(options);
  // Every observation blows the threshold: burn = 1 / (1 - 0.999) = 1000x
  // in every window — far beyond both pair thresholds.
  for (int i = 0; i < 200; ++i) {
    engine.ObserveLatency("alpha", 5.0, 1000.0 + i * 0.05);
  }
  const auto burns = engine.Evaluate(1010.0);
  const SloBurn* latency = FindBurn(burns, "alpha", "latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_TRUE(latency->burning);
  EXPECT_GT(latency->fast_short_burn, options.fast_burn_threshold);
  EXPECT_GT(latency->fast_long_burn, options.fast_burn_threshold);
  EXPECT_EQ(latency->bad, 200u);
  EXPECT_EQ(engine.BurningTenants(1010.0),
            std::vector<std::string>{"alpha"});
}

TEST(SloEngineTest, ShortBurstAloneDoesNotPage) {
  SloEngine::Options options = FastOptions();
  options.default_objective.availability_target = 0.9;
  SloEngine engine(options);
  // A long healthy history dilutes the long windows...
  for (int i = 0; i < 2000; ++i) {
    engine.ObserveRequest("alpha", /*ok=*/true, 1000.0 + i * 0.25);
  }
  const double burst_at = 1000.0 + 2000 * 0.25;
  // ...then a brief total outage inside one fast-short window only.
  for (int i = 0; i < 5; ++i) {
    engine.ObserveRequest("alpha", /*ok=*/false, burst_at + i * 0.5);
  }
  const auto burns = engine.Evaluate(burst_at + 3.0);
  const SloBurn* availability = FindBurn(burns, "alpha", "availability");
  ASSERT_NE(availability, nullptr);
  // The short window burns hot but the long window vetoes the page.
  EXPECT_GT(availability->fast_short_burn, availability->fast_long_burn);
  EXPECT_FALSE(availability->burning);
}

TEST(SloEngineTest, BurnEdgeEmitsEventOnce) {
  MetricsRegistry registry;
  EventLog events(64, &registry);
  SloEngine::Options options = FastOptions();
  options.default_objective.latency_threshold_seconds = 0.1;
  options.metrics = &registry;
  options.events = &events;
  SloEngine engine(options);
  for (int i = 0; i < 100; ++i) {
    engine.ObserveLatency("alpha", 5.0, 1000.0 + i * 0.05);
  }
  engine.Evaluate(1005.0);
  EXPECT_EQ(engine.burn_events(), 1u);
  // Still burning: the edge already fired, no duplicate event.
  engine.Evaluate(1006.0);
  EXPECT_EQ(engine.burn_events(), 1u);
  EXPECT_EQ(registry.GetCounter("slo.burn_events")->Value(), 1u);
  bool saw_burn_event = false;
  for (const auto& event : events.Recent()) {
    if (event.type == EventType::kSloBurn) saw_burn_event = true;
  }
  EXPECT_TRUE(saw_burn_event);

  // Once the burn ages out of every window the edge re-arms.
  engine.Evaluate(5000.0);
  for (int i = 0; i < 100; ++i) {
    engine.ObserveLatency("alpha", 5.0, 6000.0 + i * 0.05);
  }
  engine.Evaluate(6005.0);
  EXPECT_EQ(engine.burn_events(), 2u);
}

TEST(SloEngineTest, PerTenantObjectiveOverride) {
  SloEngine::Options options = FastOptions();
  options.default_objective.latency_threshold_seconds = 10.0;
  SloEngine engine(options);
  SloObjective strict;
  strict.latency_threshold_seconds = 0.001;
  engine.SetObjective("strict", strict);
  for (int i = 0; i < 50; ++i) {
    engine.ObserveLatency("strict", 0.5, 1000.0 + i * 0.1);
    engine.ObserveLatency("lenient", 0.5, 1000.0 + i * 0.1);
  }
  const auto burns = engine.Evaluate(1005.0);
  const SloBurn* strict_burn = FindBurn(burns, "strict", "latency");
  const SloBurn* lenient_burn = FindBurn(burns, "lenient", "latency");
  ASSERT_NE(strict_burn, nullptr);
  ASSERT_NE(lenient_burn, nullptr);
  EXPECT_TRUE(strict_burn->burning);
  EXPECT_FALSE(lenient_burn->burning);
}

TEST(SloEngineTest, MetricsFamilyIsEager) {
  MetricsRegistry registry;
  SloEngine::Options options = FastOptions();
  options.metrics = &registry;
  SloEngine engine(options);
  const auto snapshot = registry.Snapshot();
  bool saw_evaluations = false;
  bool saw_burning = false;
  for (const auto& metric : snapshot) {
    if (metric.name == "slo.evaluations") saw_evaluations = true;
    if (metric.name == "slo.tenants_burning") saw_burning = true;
  }
  EXPECT_TRUE(saw_evaluations);
  EXPECT_TRUE(saw_burning);

  engine.ObserveLatency("alpha", 0.1, 1000.0);
  engine.ObserveRequest("alpha", false, 1000.0);
  engine.Evaluate(1001.0);
  EXPECT_EQ(registry.GetCounter("slo.evaluations")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("slo.latency_observations")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("slo.requests_observed")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("slo.bad_events")->Value(), 1u);
}

TEST(SloEngineTest, RenderJsonCarriesBurnFields) {
  SloEngine::Options options = FastOptions();
  options.default_objective.latency_threshold_seconds = 0.1;
  SloEngine engine(options);
  for (int i = 0; i < 100; ++i) {
    engine.ObserveLatency("alpha", 5.0, 1000.0 + i * 0.05);
  }
  const std::string json = engine.RenderJson(1005.0);
  EXPECT_NE(json.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"burning\":true"), std::string::npos);
  EXPECT_NE(json.find("\"burn_thresholds\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
}

TEST(SloEngineTest, WindowCountsAgeOut) {
  SloEngine::Options options = FastOptions();
  options.default_objective.availability_target = 0.9;
  SloEngine engine(options);
  for (int i = 0; i < 20; ++i) {
    engine.ObserveRequest("alpha", /*ok=*/false, 1000.0 + i * 0.1);
  }
  const auto hot = engine.Evaluate(1003.0);
  const SloBurn* burning = FindBurn(hot, "alpha", "availability");
  ASSERT_NE(burning, nullptr);
  EXPECT_TRUE(burning->burning);
  // 10x the slow-long window later every bucket has lapsed.
  const auto cold = engine.Evaluate(1000.0 + 6000.0);
  const SloBurn* calm = FindBurn(cold, "alpha", "availability");
  ASSERT_NE(calm, nullptr);
  EXPECT_FALSE(calm->burning);
  EXPECT_EQ(calm->bad, 0u);
}

TEST(SloEngineTest, ConcurrentFeedsAndEvaluate) {
  // Tracer completions arrive on shard workers and request outcomes on
  // HTTP workers, while /slosz and /healthz evaluate: every feed must be
  // counted exactly once.
  MetricsRegistry registry;
  SloEngine::Options options = FastOptions();
  options.metrics = &registry;
  SloEngine engine(options);
  const std::vector<std::string> own_tenants = {"t0", "t1", "t2", "t3"};
  const int kFeeders = static_cast<int>(own_tenants.size());
  constexpr int kPerFeeder = 500;
  std::atomic<bool> done{false};
  std::vector<std::thread> feeders;
  for (int t = 0; t < kFeeders; ++t) {
    feeders.emplace_back([&, t] {
      const std::string& own = own_tenants[t];
      for (int i = 0; i < kPerFeeder; ++i) {
        const double now = 1000.0 + i * 0.01;
        const std::string& tenant = i % 2 == 0 ? own : "shared";
        engine.ObserveLatency(tenant, i % 7 == 0 ? 5.0 : 0.01, now);
        engine.ObserveRequest(tenant, i % 11 != 0, now);
      }
    });
  }
  std::thread evaluator([&] {
    while (!done.load()) {
      engine.Evaluate(1005.0);
      engine.RenderJson(1005.0);
    }
  });
  for (auto& feeder : feeders) feeder.join();
  done.store(true);
  evaluator.join();
  const uint64_t fed = kFeeders * kPerFeeder;
  EXPECT_EQ(registry.GetCounter("slo.latency_observations")->Value(), fed);
  EXPECT_EQ(registry.GetCounter("slo.requests_observed")->Value(), fed);
  // Each feeder split its feed evenly between its own tenant and the
  // shared one; the slow-long window still holds every observation.
  const auto burns = engine.Evaluate(1005.0);
  std::vector<std::string> tenants = own_tenants;
  tenants.push_back("shared");
  for (const std::string& tenant : tenants) {
    const uint64_t expected = tenant == "shared" ? fed / 2 : kPerFeeder / 2;
    for (const char* objective : {"latency", "availability"}) {
      const SloBurn* burn = FindBurn(burns, tenant, objective);
      ASSERT_NE(burn, nullptr) << tenant << " " << objective;
      EXPECT_EQ(burn->good + burn->bad, expected)
          << tenant << " " << objective;
    }
  }
}

}  // namespace
}  // namespace nidc::obs
