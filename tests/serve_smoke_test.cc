// End-to-end smoke of the live introspection stack: a real durable
// incremental clustering run with the event log, health monitor and
// metrics registry wired in, served over an in-process HttpServer,
// scraped with a raw socket client mid-run.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "http_fetch.h"
#include "nidc/core/incremental_clusterer.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/timeseries.h"
#include "nidc/serve/http_server.h"
#include "nidc/serve/introspection.h"
#include "nidc/store/durable_clusterer.h"
#include "temp_path.h"

namespace nidc {
namespace {

class ServeSmokeTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("iraq weapons inspection baghdad", 0.0, 1);
    corpus_.AddText("iraq sanctions baghdad embargo", 0.0, 1);
    corpus_.AddText("olympics skating nagano medal", 0.0, 2);
    corpus_.AddText("olympics hockey nagano final", 1.0, 2);
    corpus_.AddText("tobacco settlement senate lawsuit", 1.0, 3);
    corpus_.AddText("tobacco lawsuit vote senate", 2.0, 3);
  }

  Corpus corpus_;
};

TEST_F(ServeSmokeTest, EndpointsServeALiveRun) {
  obs::MetricsRegistry registry;
  obs::EventLog events(1024, &registry);
  obs::ClusterHealthOptions health_options;
  health_options.metrics = &registry;
  obs::ClusterHealthMonitor health(health_options);
  serve::StatusBoard board;
  obs::TimeSeriesStore::Options ts_options;
  ts_options.metrics = &registry;
  ts_options.events = &events;
  obs::TimeSeriesStore timeseries(ts_options);
  obs::PhaseProfiler profiler;
  obs::ScopedProfilerInstall install_profiler(&profiler);

  serve::HttpServer server(&registry);
  serve::IntrospectionOptions introspection;
  introspection.metrics = &registry;
  introspection.events = &events;
  introspection.health = &health;
  introspection.board = &board;
  introspection.timeseries = &timeseries;
  introspection.profiler = &profiler;

  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 14.0;
  IncrementalOptions options;
  options.kmeans.k = 3;
  options.kmeans.seed = 3;
  options.metrics = &registry;
  options.events = &events;
  options.health = &health;
  DurableOptions durable_options;
  durable_options.dir = TestTempPath("nidc_serve_smoke_store");
  std::filesystem::remove_all(durable_options.dir);
  auto durable =
      DurableClusterer::Open(&corpus_, params, options, durable_options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  introspection.explain = [&](uint64_t step) {
    return ExplainStep(Env::Default(), durable_options.dir, &corpus_, params,
                       options, step);
  };
  serve::RegisterIntrospectionEndpoints(&server, introspection);
  ASSERT_TRUE(server.Start(0).ok());

  const std::vector<std::vector<DocId>> batches = {{0, 1}, {2, 3}, {4, 5}};
  uint64_t step_index = 0;
  for (const std::vector<DocId>& batch : batches) {
    profiler.SetStep(step_index);
    auto result = (*durable)->Step(batch, static_cast<double>(step_index));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    timeseries.ObserveStep(step_index);
    serve::StatusBoard::StepRecord record;
    record.step = step_index;
    record.num_new = result->num_new;
    record.num_active = result->num_active;
    record.num_outliers = result->num_outliers;
    record.num_clusters = result->clustering.NumNonEmpty();
    record.iterations = result->iterations;
    record.g = result->final_g;
    board.RecordStep(record);
    ++step_index;

    // Scrape while the pipeline is mid-run, after every step.
    const FetchResult healthz = Fetch(server.port(), "/healthz");
    ASSERT_TRUE(healthz.ok);
    EXPECT_EQ(healthz.status, 200);
  }

  // /healthz: alive, step count matches.
  const FetchResult healthz = Fetch(server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 200);
  const Result<obs::JsonValue> health_json = obs::ParseJson(healthz.body);
  ASSERT_TRUE(health_json.ok()) << healthz.body;
  ASSERT_NE(health_json->Find("status"), nullptr);
  EXPECT_EQ(health_json->Find("status")->string_value, "ok");
  ASSERT_NE(health_json->Find("steps"), nullptr);
  EXPECT_EQ(health_json->Find("steps")->number, 3.0);
  // Replication fields are always present; without a RecordReplication
  // the role is standalone with zero lag.
  ASSERT_NE(health_json->Find("role"), nullptr);
  EXPECT_EQ(health_json->Find("role")->string_value, "standalone");
  ASSERT_NE(health_json->Find("replication_lag_records"), nullptr);
  EXPECT_EQ(health_json->Find("replication_lag_records")->number, 0.0);
  ASSERT_NE(health_json->Find("last_ship_age_s"), nullptr);

  // A published replication status shows up on the next scrape.
  serve::ReplicationStatus replication;
  replication.enabled = true;
  replication.role = "leader";
  replication.generation = 4;
  replication.replication_lag_records = 2;
  replication.last_ship_age_seconds = 0.25;
  replication.followers = 1;
  board.RecordReplication(replication);
  const FetchResult repl_healthz = Fetch(server.port(), "/healthz");
  ASSERT_TRUE(repl_healthz.ok);
  const Result<obs::JsonValue> repl_json = obs::ParseJson(repl_healthz.body);
  ASSERT_TRUE(repl_json.ok()) << repl_healthz.body;
  ASSERT_NE(repl_json->Find("role"), nullptr);
  EXPECT_EQ(repl_json->Find("role")->string_value, "leader");
  EXPECT_EQ(repl_json->Find("replication_lag_records")->number, 2.0);
  EXPECT_EQ(repl_json->Find("replication_generation")->number, 4.0);
  EXPECT_EQ(repl_json->Find("followers")->number, 1.0);

  // /statusz: step digest, G tail, health section with cluster rows.
  const FetchResult statusz = Fetch(server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_EQ(statusz.status, 200);
  const Result<obs::JsonValue> status_json = obs::ParseJson(statusz.body);
  ASSERT_TRUE(status_json.ok()) << statusz.body;
  ASSERT_NE(status_json->Find("step"), nullptr);
  EXPECT_EQ(status_json->Find("step")->number, 2.0);
  const obs::JsonValue* g_tail = status_json->Find("g_tail");
  ASSERT_NE(g_tail, nullptr);
  EXPECT_EQ(g_tail->array.size(), 3u);
  const obs::JsonValue* health_section = status_json->Find("health");
  ASSERT_NE(health_section, nullptr);
  EXPECT_NE(health_section->Find("mean_drift"), nullptr);
  const obs::JsonValue* clusters = status_json->Find("clusters");
  ASSERT_NE(clusters, nullptr);
  EXPECT_FALSE(clusters->array.empty());

  // /metrics: Prometheus text with the health/events/serve families.
  const FetchResult metrics = Fetch(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("health_topic_drift"), std::string::npos);
  EXPECT_NE(metrics.body.find("events_emitted"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("kmeans_runs"), std::string::npos);

  // /eventsz: the run emitted cluster_created events, and ?n= caps.
  const FetchResult eventsz = Fetch(server.port(), "/eventsz");
  ASSERT_TRUE(eventsz.ok);
  EXPECT_EQ(eventsz.status, 200);
  EXPECT_NE(eventsz.body.find("cluster_created"), std::string::npos);
  const FetchResult capped = Fetch(server.port(), "/eventsz?n=1");
  ASSERT_TRUE(capped.ok);
  const Result<obs::JsonValue> capped_json = obs::ParseJson(capped.body);
  ASSERT_TRUE(capped_json.ok()) << capped.body;
  const obs::JsonValue* capped_events = capped_json->Find("events");
  ASSERT_NE(capped_events, nullptr);
  EXPECT_EQ(capped_events->array.size(), 1u);

  // /timeseriesz: series list, then one metric's raw windows — the run
  // observed 3 steps, so the per-step resolution holds 3 windows.
  const FetchResult ts_list = Fetch(server.port(), "/timeseriesz");
  ASSERT_TRUE(ts_list.ok);
  EXPECT_EQ(ts_list.status, 200);
  const Result<obs::JsonValue> ts_list_json = obs::ParseJson(ts_list.body);
  ASSERT_TRUE(ts_list_json.ok()) << ts_list.body;
  const obs::JsonValue* series_names = ts_list_json->Find("series");
  ASSERT_NE(series_names, nullptr);
  EXPECT_FALSE(series_names->array.empty());
  EXPECT_EQ(ts_list_json->Find("observations")->number, 3.0);
  const FetchResult ts_metric =
      Fetch(server.port(), "/timeseriesz?metric=step.docs_new&res=1");
  ASSERT_TRUE(ts_metric.ok);
  EXPECT_EQ(ts_metric.status, 200);
  const Result<obs::JsonValue> ts_json = obs::ParseJson(ts_metric.body);
  ASSERT_TRUE(ts_json.ok()) << ts_metric.body;
  EXPECT_EQ(ts_json->Find("metric")->string_value, "step.docs_new");
  const obs::JsonValue* windows = ts_json->Find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->array.size(), 3u);
  // Two fresh documents arrived every step.
  EXPECT_DOUBLE_EQ(windows->array[0].Find("mean")->number, 2.0);
  EXPECT_DOUBLE_EQ(windows->array[2].Find("max")->number, 2.0);
  const FetchResult ts_unknown =
      Fetch(server.port(), "/timeseriesz?metric=no.such.series");
  ASSERT_TRUE(ts_unknown.ok);
  EXPECT_EQ(ts_unknown.status, 404);
  const FetchResult ts_bad_res =
      Fetch(server.port(), "/timeseriesz?metric=step.docs_new&res=7");
  ASSERT_TRUE(ts_bad_res.ok);
  EXPECT_EQ(ts_bad_res.status, 404);

  // /profilez: phase table JSON, collapsed flamegraph text, chrome trace.
  const FetchResult profilez = Fetch(server.port(), "/profilez");
  ASSERT_TRUE(profilez.ok);
  EXPECT_EQ(profilez.status, 200);
  const Result<obs::JsonValue> profile_json = obs::ParseJson(profilez.body);
  ASSERT_TRUE(profile_json.ok()) << profilez.body;
  EXPECT_GT(profile_json->Find("spans")->number, 0.0);
  const obs::JsonValue* totals = profile_json->Find("totals");
  ASSERT_NE(totals, nullptr);
  ASSERT_FALSE(totals->array.empty());
  EXPECT_NE(totals->array[0].Find("path"), nullptr);
  const FetchResult collapsed =
      Fetch(server.port(), "/profilez?format=collapsed");
  ASSERT_TRUE(collapsed.ok);
  EXPECT_EQ(collapsed.status, 200);
  EXPECT_NE(collapsed.body.find("kmeans.run"), std::string::npos);
  const FetchResult chrome = Fetch(server.port(), "/profilez?format=chrome");
  ASSERT_TRUE(chrome.ok);
  EXPECT_EQ(chrome.status, 200);
  const Result<obs::JsonValue> chrome_json = obs::ParseJson(chrome.body);
  ASSERT_TRUE(chrome_json.ok()) << chrome.body;
  EXPECT_FALSE(chrome_json->Find("traceEvents")->array.empty());
  const FetchResult bad_format =
      Fetch(server.port(), "/profilez?format=bogus");
  ASSERT_TRUE(bad_format.ok);
  EXPECT_EQ(bad_format.status, 404);

  // /explainz: the last step by default, one step, one document, and the
  // 400 and 404 paths.
  const FetchResult explain_last = Fetch(server.port(), "/explainz");
  ASSERT_TRUE(explain_last.ok);
  EXPECT_EQ(explain_last.status, 200);
  const Result<obs::JsonValue> last_json = obs::ParseJson(explain_last.body);
  ASSERT_TRUE(last_json.ok()) << explain_last.body;
  EXPECT_EQ(last_json->Find("step")->number, 2.0);
  ASSERT_NE(last_json->Find("decisions"), nullptr);
  EXPECT_EQ(last_json->Find("decisions")->array.size(), 6u);
  const FetchResult explain_first = Fetch(server.port(), "/explainz?step=0");
  ASSERT_TRUE(explain_first.ok);
  EXPECT_EQ(explain_first.status, 200);
  const FetchResult explain_doc = Fetch(server.port(), "/explainz?doc=0");
  ASSERT_TRUE(explain_doc.ok);
  EXPECT_EQ(explain_doc.status, 200);
  const Result<obs::JsonValue> doc_json = obs::ParseJson(explain_doc.body);
  ASSERT_TRUE(doc_json.ok()) << explain_doc.body;
  EXPECT_EQ(doc_json->Find("doc")->number, 0.0);
  EXPECT_EQ(doc_json->Find("step")->number, 2.0);
  ASSERT_NE(doc_json->Find("verdict"), nullptr);
  ASSERT_NE(doc_json->Find("margin"), nullptr);
  for (const char* target :
       {"/explainz?doc=99999", "/explainz?step=0&doc=5", "/explainz?step=9"}) {
    const FetchResult missing = Fetch(server.port(), target);
    ASSERT_TRUE(missing.ok);
    EXPECT_EQ(missing.status, 404) << target;
  }
  for (const char* target : {"/explainz?doc=banana", "/explainz?step=-1"}) {
    const FetchResult malformed = Fetch(server.port(), target);
    ASSERT_TRUE(malformed.ok);
    EXPECT_EQ(malformed.status, 400) << target;
  }

  server.Stop();
}

TEST_F(ServeSmokeTest, HealthzGoesStaleWithoutSteps) {
  serve::StatusBoard board;
  serve::HttpServer server;
  serve::IntrospectionOptions introspection;
  introspection.board = &board;
  introspection.stale_after_seconds = 0.0;  // everything is stale
  serve::RegisterIntrospectionEndpoints(&server, introspection);
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult healthz = Fetch(server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok);
  EXPECT_EQ(healthz.status, 503);
  EXPECT_NE(healthz.body.find("stale"), std::string::npos);
  server.Stop();
}

TEST_F(ServeSmokeTest, StatusBeforeFirstStepReportsNotStarted) {
  serve::StatusBoard board;
  serve::IntrospectionOptions introspection;
  introspection.board = &board;
  const std::string rendered = serve::RenderStatusJson(introspection);
  const Result<obs::JsonValue> parsed = obs::ParseJson(rendered);
  ASSERT_TRUE(parsed.ok()) << rendered;
  ASSERT_NE(parsed->Find("started"), nullptr);
  EXPECT_FALSE(parsed->Find("started")->bool_value);
}

}  // namespace
}  // namespace nidc
