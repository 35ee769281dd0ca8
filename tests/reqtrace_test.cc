#include "nidc/obs/reqtrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/shard/tenant.h"
#include "nidc/util/fault_env.h"

namespace nidc::obs {
namespace {

TEST(TraceContextTest, HexRoundTrip) {
  TraceContext id;
  id.hi = 0x0123456789abcdefULL;
  id.lo = 0xfedcba9876543210ULL;
  const std::string hex = id.ToHex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const TraceContext parsed = TraceContext::FromHex(hex);
  EXPECT_EQ(parsed, id);
}

TEST(TraceContextTest, TraceparentRoundTrip) {
  TraceContext id;
  id.hi = 0x00000000000000ffULL;
  id.lo = 0x1ULL;
  const std::string header = id.ToTraceparent();
  EXPECT_EQ(header.substr(0, 3), "00-");
  const TraceContext parsed = TraceContext::FromTraceparent(header);
  EXPECT_TRUE(parsed.valid());
  EXPECT_EQ(parsed, id);
}

TEST(TraceContextTest, FromTraceparentRejectsMalformedHeaders) {
  // Valid reference, then break one field at a time.
  const std::string ok =
      "00-0123456789abcdeffedcba9876543210-fedcba9876543210-01";
  EXPECT_TRUE(TraceContext::FromTraceparent(ok).valid());
  EXPECT_FALSE(TraceContext::FromTraceparent("").valid());
  EXPECT_FALSE(TraceContext::FromTraceparent("garbage").valid());
  // Forbidden version.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "ff-0123456789abcdeffedcba9876543210-fedcba9876543210-01")
                   .valid());
  // All-zero trace id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-00000000000000000000000000000000-fedcba9876543210-01")
                   .valid());
  // Non-hex trace id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-0123456789abcdeffedcba987654321g-fedcba9876543210-01")
                   .valid());
  // Truncated parent id.
  EXPECT_FALSE(TraceContext::FromTraceparent(
                   "00-0123456789abcdeffedcba9876543210-fedcba98-01")
                   .valid());
  // Version 00 must not carry trailing data.
  EXPECT_FALSE(TraceContext::FromTraceparent(ok + "-extra").valid());
}

TEST(RequestTracerTest, MintsDistinctValidIds) {
  RequestTracer tracer;
  const TraceContext a = tracer.Mint();
  const TraceContext b = tracer.Mint();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
}

TEST(RequestTracerTest, StagesFoldIntoOrderedRecord) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kIngest, 1.0);
  tracer.RecordStage(id, Stage::kEnqueue, 1.5);
  tracer.RecordStage(id, Stage::kDequeue, 2.0);
  tracer.RecordStage(id, Stage::kWindowClose, 2.5);
  tracer.RecordStage(id, Stage::kStep, 3.0);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_EQ(record.tenant, "alpha");
  EXPECT_TRUE(record.completed);
  EXPECT_FALSE(record.resumed);
  ASSERT_EQ(record.stages.size(), 5u);
  EXPECT_EQ(record.stages.front().stage, Stage::kIngest);
  EXPECT_EQ(record.stages.back().stage, Stage::kStep);
  for (size_t i = 1; i < record.stages.size(); ++i) {
    EXPECT_GE(record.stages[i].seconds, record.stages[i - 1].seconds);
  }
  EXPECT_DOUBLE_EQ(record.StageSeconds(Stage::kDequeue), 2.0);
  EXPECT_DOUBLE_EQ(record.StageSeconds(Stage::kApply), -1.0);
  EXPECT_DOUBLE_EQ(record.EndToEndSeconds(), 2.0);
  EXPECT_EQ(tracer.traces_started(), 1u);
  EXPECT_EQ(tracer.traces_completed(), 1u);
}

TEST(RequestTracerTest, CompletionFiresCallbackAndMetrics) {
  MetricsRegistry registry;
  std::vector<std::pair<std::string, double>> completions;
  RequestTracer::Options options;
  options.metrics = &registry;
  options.on_complete = [&](const std::string& tenant, double e2e,
                            double /*now*/) {
    completions.emplace_back(tenant, e2e);
  };
  RequestTracer tracer(std::move(options));

  // Eager registration: the family exists before any trace.
  EXPECT_EQ(registry.GetCounter("pipeline.traces_started")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_completed")->Value(), 0u);

  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 10.0);
  tracer.RecordStage(id, Stage::kStep, 10.25);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].first, "alpha");
  EXPECT_DOUBLE_EQ(completions[0].second, 0.25);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_started")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("pipeline.traces_completed")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("pipeline.stage_events")->Value(), 2u);
}

TEST(RequestTracerTest, DocBindingsRecoverWindowTraces) {
  RequestTracer tracer;
  const TraceContext a = tracer.Mint();
  const TraceContext b = tracer.Mint();
  tracer.Begin(a, "alpha");
  tracer.Begin(b, "alpha");
  tracer.BindDoc("alpha", 1, a);
  tracer.BindDoc("alpha", 2, a);
  tracer.BindDoc("alpha", 3, b);
  tracer.BindDoc("bravo", 1, b);

  // Duplicate doc ids collapse to distinct traces; tenants are isolated.
  const auto traces = tracer.TracesForDocs("alpha", {1, 2, 3});
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0], a);
  EXPECT_EQ(traces[1], b);
  EXPECT_TRUE(tracer.TracesForDocs("bravo", {2, 3}).empty());
  EXPECT_TRUE(tracer.TracesForDocs("alpha", {99}).empty());
}

TEST(RequestTracerTest, UnbindDocsDropsOnlyTheNamedBindings) {
  MetricsRegistry registry;
  RequestTracer::Options options;
  options.metrics = &registry;
  RequestTracer tracer(std::move(options));
  // Registered eagerly, before the first binding.
  const std::vector<MetricSample> samples = registry.Snapshot();
  EXPECT_TRUE(std::any_of(samples.begin(), samples.end(),
                          [](const MetricSample& sample) {
                            return sample.name == "pipeline.doc_bindings";
                          }));
  const TraceContext a = tracer.Mint();
  tracer.BindDoc("alpha", 1, a);
  tracer.BindDoc("alpha", 2, a);
  tracer.BindDoc("bravo", 1, a);
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  EXPECT_EQ(registry.GetGauge("pipeline.doc_bindings")->Value(), 3.0);

  // Unknown documents and other tenants' bindings are untouched.
  tracer.UnbindDocs("alpha", {1, 7});
  EXPECT_EQ(tracer.doc_bindings(), 2u);
  EXPECT_TRUE(tracer.TracesForDocs("alpha", {1}).empty());
  EXPECT_EQ(tracer.TracesForDocs("alpha", {2}).size(), 1u);
  EXPECT_EQ(tracer.TracesForDocs("bravo", {1}).size(), 1u);
  tracer.UnbindDocs("alpha", {2});
  tracer.UnbindDocs("bravo", {1});
  EXPECT_EQ(tracer.doc_bindings(), 0u);
  EXPECT_EQ(registry.GetGauge("pipeline.doc_bindings")->Value(), 0.0);
}

TEST(RequestTracerTest, BindingBoundStillEvictsTheOldest) {
  RequestTracer::Options options;
  options.max_doc_bindings = 3;
  RequestTracer tracer(std::move(options));
  const TraceContext a = tracer.Mint();
  for (uint64_t doc = 1; doc <= 4; ++doc) tracer.BindDoc("alpha", doc, a);
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  EXPECT_TRUE(tracer.TracesForDocs("alpha", {1}).empty());
  // Re-binding a document keeps its age; unbinding frees its room.
  const TraceContext b = tracer.Mint();
  tracer.BindDoc("alpha", 2, b);
  tracer.UnbindDocs("alpha", {3});
  tracer.BindDoc("alpha", 5, a);
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  EXPECT_EQ(tracer.TracesForDocs("alpha", {2}),
            (std::vector<TraceContext>{b}));
  tracer.BindDoc("alpha", 6, a);
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  EXPECT_TRUE(tracer.TracesForDocs("alpha", {2}).empty());  // the oldest
  EXPECT_EQ(tracer.TracesForDocs("alpha", {4, 5, 6}).size(), 1u);
}

shard::TenantConfig OneDayWindows() {
  shard::TenantConfig config;
  config.k = 2;
  config.step_days = 1.0;
  return config;
}

std::vector<RawDocument> OpenWindowBatch() {
  std::vector<RawDocument> docs(3);
  for (size_t i = 0; i < docs.size(); ++i) {
    docs[i].time = 0.25 + 0.25 * i;  // all inside the open window [0, 1)
    docs[i].text = "bindterm" + std::to_string(i) + " shared common";
  }
  return docs;
}

std::string FreshTenantDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/nidc_reqtrace_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RequestTracerTest, SteppedWindowUnbindsItsDocuments) {
  RequestTracer tracer;
  shard::TenantRuntime runtime;
  runtime.tracer = &tracer;
  auto tenant = shard::Tenant::Create("alpha", FreshTenantDir("stepped"),
                                      OneDayWindows(), runtime);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  const TraceContext trace = tracer.Mint();
  tracer.Begin(trace, "alpha");
  ASSERT_TRUE((*tenant)->Ingest(OpenWindowBatch(), trace).ok());
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  ASSERT_TRUE((*tenant)->FlushUntil(1.0).ok());
  EXPECT_EQ(tracer.doc_bindings(), 0u);
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(trace, &record));
  EXPECT_TRUE(record.completed);
}

TEST(RequestTracerTest, FailedStepKeepsItsBindings) {
  RequestTracer tracer;
  const std::string dir = FreshTenantDir("failed");
  const TraceContext trace = tracer.Mint();
  tracer.Begin(trace, "alpha");
  {
    FaultInjectionEnv env(Env::Default());
    shard::TenantRuntime runtime;
    runtime.env = &env;
    runtime.tracer = &tracer;
    auto tenant =
        shard::Tenant::Create("alpha", dir, OneDayWindows(), runtime);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    ASSERT_TRUE((*tenant)->Ingest(OpenWindowBatch(), trace).ok());
    env.ArmCrashAtOp(1);
    EXPECT_FALSE((*tenant)->FlushUntil(1.0).ok());
    EXPECT_TRUE(env.crashed());
  }
  EXPECT_EQ(tracer.doc_bindings(), 3u);
  // The reopen re-drives the window; stepping it now unbinds.
  shard::TenantRuntime runtime;
  runtime.tracer = &tracer;
  auto reopened = shard::Tenant::Open("alpha", dir, runtime);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->FlushUntil(1.0).ok());
  EXPECT_EQ(tracer.doc_bindings(), 0u);
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(trace, &record));
  EXPECT_TRUE(record.completed);
  EXPECT_TRUE(record.resumed);
}

TEST(RequestTracerTest, StepScopeStampsActiveTraces) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  {
    RequestTracer::StepScope scope(&tracer, {id});
    tracer.RecordActive(Stage::kWalCommit);
    tracer.RecordActive(Stage::kStep);
  }
  // Outside the scope the stamp is a no-op.
  tracer.RecordActive(Stage::kCheckpoint);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_TRUE(record.completed);
  ASSERT_EQ(record.stages.size(), 3u);
  EXPECT_EQ(record.stages[1].stage, Stage::kWalCommit);
  EXPECT_EQ(record.stages[2].stage, Stage::kStep);
}

TEST(RequestTracerTest, ShipmentRegistrationStampsApply) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  {
    RequestTracer::StepScope scope(&tracer, {id});
    tracer.RecordActive(Stage::kShip);
    tracer.RegisterShipment(/*generation=*/3, /*sequence=*/7);
    tracer.RecordActive(Stage::kStep);
  }
  // The follower only knows the watermark — possibly on another thread.
  std::thread applier([&] { tracer.RecordApplied(3, 7); });
  applier.join();
  // An unknown watermark is a no-op (the cross-process case).
  tracer.RecordApplied(9, 9);

  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  ASSERT_FALSE(record.stages.empty());
  EXPECT_EQ(record.stages.back().stage, Stage::kApply);
  EXPECT_GE(record.StageSeconds(Stage::kApply), 0.0);
}

TEST(RequestTracerTest, MarkResumedFlagsTheRecord) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.MarkResumed(id);
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  EXPECT_TRUE(record.resumed);
}

TEST(RequestTracerTest, AggregatesCarryExemplars) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  tracer.RecordStage(id, Stage::kDequeue, 1.1);
  tracer.RecordStage(id, Stage::kStep, 1.2);

  auto aggregates = tracer.Aggregates();
  // Tenant "alpha" plus the all-tenant roll-up "".
  ASSERT_TRUE(aggregates.count("alpha"));
  ASSERT_TRUE(aggregates.count(""));
  const StageAggregate& dequeue =
      aggregates["alpha"][static_cast<size_t>(Stage::kDequeue)];
  EXPECT_EQ(dequeue.total, 1u);
  EXPECT_GT(dequeue.Quantile(0.5), 0.0);
  EXPECT_EQ(dequeue.ExemplarAt(0.99), id);
}

TEST(RequestTracerTest, CompletedFiltersByTenant) {
  RequestTracer tracer;
  for (int i = 0; i < 3; ++i) {
    const TraceContext id = tracer.Mint();
    tracer.Begin(id, i < 2 ? "alpha" : "bravo");
    tracer.RecordStage(id, Stage::kEnqueue, 1.0 + i);
    tracer.RecordStage(id, Stage::kStep, 1.5 + i);
  }
  EXPECT_EQ(tracer.Completed(10).size(), 3u);
  EXPECT_EQ(tracer.Completed(10, "alpha").size(), 2u);
  EXPECT_EQ(tracer.Completed(1, "alpha").size(), 1u);
  EXPECT_TRUE(tracer.Completed(10, "charlie").empty());
}

TEST(RequestTracerTest, TracezJsonAnswersUnknownTraceWithError) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  tracer.RecordStage(id, Stage::kEnqueue, 1.0);
  tracer.RecordStage(id, Stage::kStep, 1.5);

  const std::string known = tracer.RenderTracezJson(id.ToHex(), "", 10);
  EXPECT_NE(known.find(id.ToHex()), std::string::npos);
  EXPECT_NE(known.find("\"step\""), std::string::npos);

  const std::string unknown =
      tracer.RenderTracezJson(std::string(32, 'f'), "", 10);
  EXPECT_EQ(unknown.rfind("{\"error\"", 0), 0u);

  const std::string waterfall = tracer.RenderWaterfallJson();
  EXPECT_NE(waterfall.find("\"waterfall\""), std::string::npos);
  EXPECT_NE(waterfall.find("\"traces_completed\""), std::string::npos);
}

TEST(RequestTracerTest, BurstOfStampsIsNeverDropped) {
  RequestTracer tracer;
  const TraceContext id = tracer.Mint();
  tracer.Begin(id, "alpha");
  // 5,000 non-step stamps with no read in between: every one must land
  // on the record, none may be counted as dropped.
  constexpr int kStamps = 5000;
  for (int i = 0; i < kStamps; ++i) {
    tracer.RecordStage(id, Stage::kEnqueue, 1.0 + i);
  }
  TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(id, &record));
  ASSERT_EQ(record.stages.size(), static_cast<size_t>(kStamps));
  EXPECT_EQ(record.stages.front().seconds, 1.0);
  EXPECT_EQ(record.stages.back().seconds, static_cast<double>(kStamps));
  EXPECT_EQ(tracer.stage_events_dropped(), 0u);
}

TEST(RequestTracerTest, RecordTableIsBounded) {
  RequestTracer::Options options;
  options.max_records = 4;
  RequestTracer tracer(std::move(options));
  std::vector<TraceContext> ids;
  for (int i = 0; i < 10; ++i) {
    const TraceContext id = tracer.Mint();
    ids.push_back(id);
    tracer.Begin(id, "alpha");
  }
  TraceRecord record;
  EXPECT_FALSE(tracer.Lookup(ids.front(), &record));  // evicted
  EXPECT_TRUE(tracer.Lookup(ids.back(), &record));
  EXPECT_EQ(tracer.traces_started(), 10u);
}

TEST(RequestTracerTest, ConcurrentStampsSurviveTsan) {
  MetricsRegistry registry;
  RequestTracer::Options options;
  options.metrics = &registry;
  RequestTracer tracer(std::move(options));
  std::vector<TraceContext> ids;
  for (int i = 0; i < 4; ++i) {
    const TraceContext id = tracer.Mint();
    const std::string index = std::to_string(i);
    tracer.Begin(id, "t" + index);
    ids.push_back(id);
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        tracer.RecordStage(ids[t], Stage::kEnqueue);
        tracer.RecordStage(ids[t], Stage::kStep);
      }
    });
  }
  // A concurrent reader walks the table while the writers stamp.
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      tracer.Aggregates();
      tracer.Completed(4);
    }
  });
  for (auto& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(tracer.traces_started(), 4u);
  EXPECT_EQ(tracer.traces_completed(), 4u);
  for (const TraceContext& id : ids) {
    TraceRecord record;
    ASSERT_TRUE(tracer.Lookup(id, &record));
    EXPECT_EQ(record.stages.size(), 400u);
    EXPECT_TRUE(record.completed);
  }
  EXPECT_EQ(registry.GetCounter("pipeline.stage_events")->Value(), 1600u);
  EXPECT_EQ(tracer.stage_events_dropped(), 0u);
}

}  // namespace
}  // namespace nidc::obs
