#include "nidc/shard/http.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "env_wrapper.h"
#include "http_fetch.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "nidc/serve/introspection.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/service.h"
#include "nidc/shard/tenant.h"
#include "temp_path.h"

namespace nidc::shard {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TenantConfig SmallConfig() {
  TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = 3;
  config.step_days = 1.0;
  config.start_time = 0.0;
  config.seed = 42;
  return config;
}

std::vector<RawDocument> MakeFeed(const std::string& salt, int days,
                                  int per_day) {
  std::vector<RawDocument> docs;
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < per_day; ++i) {
      RawDocument doc;
      doc.time = d + 0.1 + 0.8 * i / per_day;
      doc.topic = i % 3;
      doc.text = salt + "term" + std::to_string(i % 5) + " " + salt +
                 "word" + std::to_string((i + d) % 7) + " shared common " +
                 salt + "tail" + std::to_string(i % 2);
      docs.push_back(std::move(doc));
    }
  }
  auto parsed = ParseIngestJsonl(FormatIngestJsonl(docs));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

std::vector<std::string> WireBatches(const std::vector<RawDocument>& docs,
                                     size_t batch_docs) {
  std::vector<std::string> batches;
  for (size_t off = 0; off < docs.size(); off += batch_docs) {
    const size_t n = std::min(batch_docs, docs.size() - off);
    batches.push_back(FormatIngestJsonl(
        std::vector<RawDocument>(docs.begin() + off,
                                 docs.begin() + off + n)));
  }
  return batches;
}

// The single-stream reference the HTTP path must reproduce bit for bit:
// the same wire batches through a standalone Tenant (the CLI's ingest
// path), no server, no queues, no shard threads.
std::string ReferenceDigest(const std::string& dir,
                            const TenantConfig& config,
                            const std::vector<std::string>& wire_batches,
                            DayTime flush_until) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TenantRuntime runtime;
  auto tenant = Tenant::Create("reference", dir, config, runtime);
  EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
  for (const std::string& body : wire_batches) {
    auto docs = ParseIngestJsonl(body);
    EXPECT_TRUE(docs.ok());
    EXPECT_TRUE((*tenant)->Ingest(*docs).ok());
  }
  EXPECT_TRUE((*tenant)->FlushUntil(flush_until).ok());
  return (*tenant)->StateDigest();
}

// Holds every WAL sync until Open(), so a test can park a shard worker
// inside its first step for as long as it needs.
class WalSyncGate : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    Result<std::unique_ptr<WritableFile>> file =
        base()->NewWritableFile(path, truncate);
    if (!file.ok() || path.find("/wal-") == std::string::npos) return file;
    return std::unique_ptr<WritableFile>(
        std::make_unique<GatedFile>(std::move(file).value(), this));
  }

 private:
  class GatedFile : public WritableFileWrapper {
   public:
    GatedFile(std::unique_ptr<WritableFile> base, WalSyncGate* gate)
        : WritableFileWrapper(std::move(base)), gate_(gate) {}
    Status Sync() override {
      {
        std::unique_lock<std::mutex> lock(gate_->mu_);
        gate_->cv_.wait(lock, [this] { return gate_->open_; });
      }
      return WritableFileWrapper::Sync();
    }

   private:
    WalSyncGate* gate_;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// One sharded server wired exactly like `nidc_cli serve`: a shared
// registry feeding both the service (shard.*) and the server (serve.*).
class ShardHttpTest : public testing::Test {
 protected:
  ~ShardHttpTest() override {
    // A failed assertion must not leave a shard worker parked in Stop.
    if (gate_ != nullptr) gate_->Open();
    TearDownServer();
  }

  std::string Root(const std::string& name) {
    const std::string root = TestTempPath("nidc_shard_http_" + name);
    std::filesystem::remove_all(root);
    return root;
  }

  uint16_t StartServer(const std::string& root, size_t shards,
                       size_t queue_capacity = 64) {
    ShardServiceOptions options;
    options.root = root;
    options.num_shards = shards;
    options.queue_capacity = queue_capacity;
    options.wal_sync = WalSyncMode::kNone;
    if (gate_ != nullptr) {
      // WAL syncs happen only under kEveryRecord.
      options.env = gate_.get();
      options.wal_sync = WalSyncMode::kEveryRecord;
    }
    options.metrics = &registry_;
    options.tracer = tracer_.get();
    auto service = ShardService::Start(std::move(options));
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    server_ = std::make_unique<serve::HttpServer>(&registry_);
    RegisterShardHandlers(server_.get(), service_.get(), SmallConfig(),
                          tracer_.get(), slo_.get());
    EXPECT_TRUE(server_->Start(0).ok());
    return server_->port();
  }

  void TearDownServer() {
    if (server_ != nullptr) server_->Stop();
    if (service_ != nullptr) service_->Stop();
    server_.reset();
    service_.reset();
  }

  obs::MetricsRegistry registry_;
  /// Set before StartServer to run the service over a WalSyncGate.
  std::unique_ptr<WalSyncGate> gate_;
  /// Set before StartServer to serve /slosz and to trace requests for
  /// /tracez, completed traces feeding the SLO engine as `nidc_cli serve`
  /// wires them.
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::RequestTracer> tracer_;
  std::unique_ptr<ShardService> service_;
  std::unique_ptr<serve::HttpServer> server_;
};

TEST_F(ShardHttpTest, ServerStateMatchesSingleStreamReference) {
  const std::string root = Root("equiv");
  const auto feed = MakeFeed("equiv", 5, 8);
  const auto batches = WireBatches(feed, 16);
  const DayTime flush_until = 6.0;
  const std::string expected =
      ReferenceDigest(root + "_ref", SmallConfig(), batches, flush_until);

  const uint16_t port = StartServer(root, 2);
  auto created = Post(port, "/tenantz?op=create&tenant=alpha");
  ASSERT_TRUE(created.ok);
  ASSERT_EQ(created.status, 200) << created.body;
  EXPECT_TRUE(Contains(created.body, "\"ok\":true")) << created.body;

  for (const std::string& body : batches) {
    auto accepted = Post(port, "/ingest?tenant=alpha", body);
    ASSERT_TRUE(accepted.ok);
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    EXPECT_TRUE(Contains(accepted.body, "\"tenant\":\"alpha\""));
    EXPECT_TRUE(Contains(accepted.body, "\"accepted\":"));
    EXPECT_TRUE(Contains(accepted.body, "\"queued\":"));
  }
  auto flushed =
      Post(port, "/tenantz?op=flush&tenant=alpha&until=6");
  ASSERT_EQ(flushed.status, 200) << flushed.body;

  auto digest = Fetch(port, "/digestz?tenant=alpha");
  ASSERT_TRUE(digest.ok);
  ASSERT_EQ(digest.status, 200);
  EXPECT_EQ(digest.body, expected)
      << "HTTP-ingested state diverged from the single-stream reference";

  // The tenant list reflects the ingest.
  auto tenants = Fetch(port, "/tenantz");
  ASSERT_EQ(tenants.status, 200);
  EXPECT_TRUE(Contains(tenants.body, "\"name\":\"alpha\""));
  EXPECT_TRUE(Contains(
      tenants.body,
      "\"docs_ingested\":" + std::to_string(feed.size())));
}

TEST_F(ShardHttpTest, IngestErrorsMapToHttpStatuses) {
  const uint16_t port = StartServer(Root("errors"), 1);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);

  // Missing ?tenant=.
  EXPECT_EQ(Post(port, "/ingest", "{\"time\":1,\"text\":\"x\"}").status,
            400);
  // Unknown tenant.
  auto unknown =
      Post(port, "/ingest?tenant=ghost", "{\"time\":1,\"text\":\"x\"}");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_TRUE(Contains(unknown.body, "error")) << unknown.body;
  // Malformed body: nothing is enqueued, the error names the line.
  auto malformed = Post(port, "/ingest?tenant=alpha",
                        "{\"time\": 1.0, \"text\": \"ok\"}\n{broken\n");
  EXPECT_EQ(malformed.status, 400);
  EXPECT_TRUE(Contains(malformed.body, "line 2")) << malformed.body;
  // Wrong method.
  EXPECT_EQ(Fetch(port, "/ingest?tenant=alpha").status, 405);
  EXPECT_EQ(Post(port, "/digestz?tenant=alpha").status, 405);

  // The malformed batch never reached the tenant.
  service_->Drain();
  auto tenants = Fetch(port, "/tenantz");
  EXPECT_TRUE(Contains(tenants.body, "\"docs_ingested\":0"))
      << tenants.body;
}

TEST_F(ShardHttpTest, ControlPlaneValidatesOpsAndConflicts) {
  const uint16_t port = StartServer(Root("ops"), 1);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  // Duplicate create → 409 (AlreadyExists).
  EXPECT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 409);
  // Bad tenant name → 400.
  EXPECT_EQ(Post(port, "/tenantz?op=create&tenant=.hidden").status, 400);
  // Unknown op → 400; op without tenant → 400.
  EXPECT_EQ(Post(port, "/tenantz?op=explode&tenant=alpha").status, 400);
  EXPECT_EQ(Post(port, "/tenantz?op=evict").status, 400);
  // flush requires ?until=.
  EXPECT_EQ(Post(port, "/tenantz?op=flush&tenant=alpha").status, 400);
  // Ops on a missing tenant → 404.
  EXPECT_EQ(Post(port, "/tenantz?op=evict&tenant=ghost").status, 404);
  EXPECT_EQ(
      Post(port, "/tenantz?op=flush&tenant=ghost&until=3").status, 404);
  EXPECT_EQ(Fetch(port, "/digestz?tenant=ghost").status, 404);
  EXPECT_EQ(Fetch(port, "/digestz").status, 400);
  EXPECT_EQ(Fetch(port, "/statusz?tenant=ghost").status, 404);
  // drain is tenant-less and always succeeds.
  EXPECT_EQ(Post(port, "/tenantz?op=drain").status, 200);
  // checkpoint works over HTTP.
  EXPECT_EQ(Post(port, "/tenantz?op=checkpoint&tenant=alpha").status, 200);
}

TEST_F(ShardHttpTest, CreateAcceptsQueryOverrides) {
  const std::string root = Root("overrides");
  const uint16_t port = StartServer(root, 1);
  ASSERT_EQ(Post(port,
                 "/tenantz?op=create&tenant=custom&k=5&half_life=3.5"
                 "&life_span=14&step=0.5&start=2&seed=7")
                .status,
            200);
  service_->Drain();
  // The persisted TENANT.json carries the overridden fields.
  std::ifstream file(root + "/tenants/custom/TENANT.json");
  std::string json((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  auto config = TenantConfig::FromJson(json);
  ASSERT_TRUE(config.ok()) << config.status().ToString() << " " << json;
  EXPECT_EQ(config->k, 5u);
  EXPECT_DOUBLE_EQ(config->params.half_life_days, 3.5);
  EXPECT_DOUBLE_EQ(config->params.life_span_days, 14.0);
  EXPECT_DOUBLE_EQ(config->step_days, 0.5);
  EXPECT_DOUBLE_EQ(config->start_time, 2.0);
  EXPECT_EQ(config->seed, 7u);
}

TEST_F(ShardHttpTest, CreateRefusesMalformedIntegersAndCreatesNothing) {
  const std::string root = Root("bad_create");
  uint16_t port = StartServer(root, 1);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  // k and seed are unsigned integers: a fraction, an out-of-range
  // number, a sign or a seed above 2^53 (which TENANT.json's JSON number
  // cannot hold exactly) is refused before any directory is made.
  for (const char* query : {"k=2.5", "k=1e400", "k=-1", "seed=-1",
                            "seed=9007199254740993"}) {
    EXPECT_EQ(
        Post(port, std::string("/tenantz?op=create&tenant=bad&") + query)
            .status,
        400)
        << query;
    EXPECT_FALSE(std::filesystem::exists(root + "/tenants/bad")) << query;
  }
  // A restart on the same root recovers every tenant.
  TearDownServer();
  port = StartServer(root, 1);
  const auto tenants = Fetch(port, "/tenantz");
  ASSERT_EQ(tenants.status, 200);
  EXPECT_TRUE(Contains(tenants.body, "\"name\":\"alpha\"")) << tenants.body;
  EXPECT_FALSE(Contains(tenants.body, "\"name\":\"bad\"")) << tenants.body;
}

TEST_F(ShardHttpTest, FullQueueAnswers429WithRetryAfter) {
  const std::string root = Root("backpressure");
  // Every batch spans several windows, so the first one steps (and syncs
  // the WAL) while the client stacks more batches behind it.
  const auto feed = MakeFeed("press", 16, 12);
  const auto batches = WireBatches(feed, 48);
  const DayTime flush_until = 17.0;
  const std::string expected =
      ReferenceDigest(root + "_ref", SmallConfig(), batches, flush_until);

  // The worker parks in its first WAL sync, so the queue stays full until
  // the client has been pushed back once, however fast the host drains.
  gate_ = std::make_unique<WalSyncGate>(Env::Default());
  const uint16_t port = StartServer(root, 1, /*queue_capacity=*/1);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);

  size_t rejections = 0;
  for (const std::string& body : batches) {
    for (;;) {
      auto response = Post(port, "/ingest?tenant=alpha", body);
      ASSERT_TRUE(response.ok);
      if (response.status == 202) break;
      ASSERT_EQ(response.status, 429) << response.body;
      EXPECT_TRUE(Contains(response.headers, "Retry-After: 1"))
          << response.headers;
      ++rejections;
      gate_->Open();
    }
  }
  EXPECT_GT(rejections, 0u)
      << "queue_capacity=1 never pushed back; backpressure is broken";

  // Rejected batches were retried, so nothing is lost or reordered.
  ASSERT_EQ(
      Post(port, "/tenantz?op=flush&tenant=alpha&until=17").status, 200);
  auto digest = Fetch(port, "/digestz?tenant=alpha");
  ASSERT_EQ(digest.status, 200);
  EXPECT_EQ(digest.body, expected);
  EXPECT_EQ(registry_.GetCounter("shard.ingest.rejected_batches")->Value(),
            rejections);
}

TEST_F(ShardHttpTest, EvictThenReopenKeepsStateAcrossHttp) {
  const std::string root = Root("evict");
  const uint16_t port = StartServer(root, 2);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  for (const std::string& body : WireBatches(MakeFeed("ev", 3, 6), 9)) {
    ASSERT_EQ(Post(port, "/ingest?tenant=alpha", body).status, 202);
  }
  ASSERT_EQ(Post(port, "/tenantz?op=flush&tenant=alpha&until=4").status,
            200);
  auto before = Fetch(port, "/digestz?tenant=alpha");
  ASSERT_EQ(before.status, 200);

  ASSERT_EQ(Post(port, "/tenantz?op=evict&tenant=alpha").status, 200);
  EXPECT_EQ(Fetch(port, "/digestz?tenant=alpha").status, 404);
  EXPECT_EQ(
      Post(port, "/ingest?tenant=alpha", "{\"time\":9,\"text\":\"x\"}")
          .status,
      404);
  // Still on disk: reopen restores the exact state.
  ASSERT_EQ(Post(port, "/tenantz?op=reopen&tenant=alpha").status, 200);
  auto after = Fetch(port, "/digestz?tenant=alpha");
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(after.body, before.body);
}

TEST_F(ShardHttpTest, IntrospectionEndpointsRender) {
  const uint16_t port = StartServer(Root("introspect"), 2);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=bravo").status, 200);
  for (const std::string& body : WireBatches(MakeFeed("in", 3, 6), 9)) {
    ASSERT_EQ(Post(port, "/ingest?tenant=alpha", body).status, 202);
  }
  ASSERT_EQ(Post(port, "/tenantz?op=flush&tenant=alpha&until=4").status,
            200);

  auto health = Fetch(port, "/healthz");
  ASSERT_EQ(health.status, 200);
  EXPECT_TRUE(Contains(health.body, "\"healthy\":true")) << health.body;
  EXPECT_TRUE(Contains(health.body, "\"num_tenants\":2")) << health.body;
  EXPECT_TRUE(Contains(health.body, "\"failed_tenants\":[]"))
      << health.body;

  // Aggregate /statusz is the tenant list; per-tenant is the pipeline
  // status the single-stream server renders.
  auto aggregate = Fetch(port, "/statusz");
  ASSERT_EQ(aggregate.status, 200);
  EXPECT_TRUE(Contains(aggregate.body, "\"queue_depths\""));
  EXPECT_TRUE(Contains(aggregate.body, "\"name\":\"bravo\""));
  auto status = Fetch(port, "/statusz?tenant=alpha");
  ASSERT_EQ(status.status, 200);
  EXPECT_TRUE(Contains(status.body, "\"num_clusters\"")) << status.body;
  EXPECT_TRUE(Contains(status.body, "\"durability\"")) << status.body;

  // Server-wide Prometheus text carries both families.
  auto metrics = Fetch(port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_TRUE(Contains(metrics.body, "shard_ingest_docs"))
      << metrics.body.substr(0, 400);
  EXPECT_TRUE(Contains(metrics.body, "serve_requests"))
      << metrics.body.substr(0, 400);
  // Per-tenant registry serves the pipeline families.
  auto tenant_metrics = Fetch(port, "/metrics?tenant=alpha");
  ASSERT_EQ(tenant_metrics.status, 200);
  EXPECT_TRUE(Contains(tenant_metrics.body, "shard_tenant_docs"))
      << tenant_metrics.body.substr(0, 400);
  EXPECT_EQ(Fetch(port, "/metrics?tenant=ghost").status, 404);

  // /metricsz is one JSON object with the same counters.
  auto metricsz = Fetch(port, "/metricsz");
  ASSERT_EQ(metricsz.status, 200);
  EXPECT_EQ(metricsz.body.front(), '{');
  EXPECT_TRUE(Contains(metricsz.body, "\"shard.ingest.docs\""))
      << metricsz.body.substr(0, 400);
}

TEST_F(ShardHttpTest, TracezAndSloszServeTracedIngest) {
  slo_ = std::make_unique<obs::SloEngine>();
  obs::RequestTracer::Options trace_options;
  trace_options.on_complete = [slo = slo_.get()](const std::string& tenant,
                                                 double e2e_seconds,
                                                 double now_seconds) {
    slo->ObserveLatency(tenant, e2e_seconds, now_seconds);
  };
  tracer_ = std::make_unique<obs::RequestTracer>(trace_options);
  const uint16_t port = StartServer(Root("tracez"), 2);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=bravo").status, 200);

  // The first alpha batch carries the caller's traceparent; every other
  // batch gets a minted trace id.
  const std::string trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const auto alpha = WireBatches(MakeFeed("alpha", 3, 4), 4);
  auto traced = Request(port, "POST", "/ingest?tenant=alpha", alpha[0],
                        "traceparent: 00-" + trace_id +
                            "-00f067aa0ba902b7-01\r\n");
  ASSERT_EQ(traced.status, 202) << traced.body;
  EXPECT_TRUE(Contains(traced.body, "\"trace\":\"" + trace_id + "\""))
      << traced.body;
  for (size_t i = 1; i < alpha.size(); ++i) {
    ASSERT_EQ(Post(port, "/ingest?tenant=alpha", alpha[i]).status, 202);
  }
  for (const std::string& body : WireBatches(MakeFeed("bravo", 3, 4), 4)) {
    ASSERT_EQ(Post(port, "/ingest?tenant=bravo", body).status, 202);
  }
  for (const std::string tenant : {"alpha", "bravo"}) {
    ASSERT_EQ(Post(port, "/tenantz?op=flush&until=4&tenant=" + tenant).status,
              200);
  }

  // The caller's trace resolves to its completed stage waterfall.
  auto trace = Fetch(port, "/tracez?trace=" + trace_id);
  ASSERT_EQ(trace.status, 200) << trace.body;
  EXPECT_TRUE(Contains(trace.body, "\"completed\":true")) << trace.body;
  EXPECT_TRUE(Contains(trace.body, "\"stage\":\"window_close\""))
      << trace.body;
  EXPECT_TRUE(Contains(trace.body, "\"stage\":\"step\"")) << trace.body;
  EXPECT_EQ(Fetch(port, "/tracez?trace=0123456789abcdef0123456789abcdef")
                .status,
            404);

  // A tenant's recent traces hold only that tenant's, n at most.
  auto recent = Fetch(port, "/tracez?tenant=alpha&n=2");
  ASSERT_EQ(recent.status, 200) << recent.body;
  EXPECT_FALSE(Contains(recent.body, "bravo")) << recent.body;
  size_t traces = 0;
  for (size_t at = recent.body.find("\"trace\":"); at != std::string::npos;
       at = recent.body.find("\"trace\":", at + 1)) {
    ++traces;
  }
  EXPECT_EQ(traces, 2u) << recent.body;

  auto slos = Fetch(port, "/slosz");
  ASSERT_EQ(slos.status, 200) << slos.body;
  EXPECT_TRUE(Contains(slos.body, "\"objective\":\"latency\""))
      << slos.body;
  EXPECT_TRUE(Contains(slos.body, "\"objective\":\"availability\""))
      << slos.body;
}

size_t CountTraces(const std::string& body) {
  size_t traces = 0;
  for (size_t at = body.find("\"trace\":"); at != std::string::npos;
       at = body.find("\"trace\":", at + 1)) {
    ++traces;
  }
  return traces;
}

TEST_F(ShardHttpTest, EventszServesATenantsEvents) {
  const uint16_t port = StartServer(Root("eventsz"), 1);
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);
  for (const std::string& body : WireBatches(MakeFeed("ev", 3, 6), 9)) {
    ASSERT_EQ(Post(port, "/ingest?tenant=alpha", body).status, 202);
  }
  ASSERT_EQ(Post(port, "/tenantz?op=flush&tenant=alpha&until=4").status,
            200);

  auto events = Fetch(port, "/eventsz?tenant=alpha");
  ASSERT_EQ(events.status, 200) << events.body;
  const Result<obs::JsonValue> json = obs::ParseJson(events.body);
  ASSERT_TRUE(json.ok()) << events.body;
  ASSERT_NE(json->Find("events"), nullptr);
  EXPECT_GT(json->Find("events")->array.size(), 1u) << events.body;
  EXPECT_TRUE(Contains(events.body, "cluster_created")) << events.body;

  auto capped = Fetch(port, "/eventsz?tenant=alpha&n=1");
  ASSERT_EQ(capped.status, 200) << capped.body;
  const Result<obs::JsonValue> capped_json = obs::ParseJson(capped.body);
  ASSERT_TRUE(capped_json.ok()) << capped.body;
  EXPECT_EQ(capped_json->Find("events")->array.size(), 1u) << capped.body;

  EXPECT_EQ(Fetch(port, "/eventsz?tenant=ghost").status, 404);
}

// The read-endpoint rules belong to serve/introspection, so they hold on
// the sharded routes and on a single-stream server alike.
TEST_F(ShardHttpTest, ReadEndpointRulesHoldOnBothStacks) {
  slo_ = std::make_unique<obs::SloEngine>();
  tracer_ = std::make_unique<obs::RequestTracer>();
  const uint16_t shard_port = StartServer(Root("rules"), 1);
  ASSERT_EQ(Post(shard_port, "/tenantz?op=create&tenant=alpha").status, 200);

  obs::MetricsRegistry stream_registry;
  obs::EventLog stream_events(64, &stream_registry);
  serve::StatusBoard board;
  serve::IntrospectionOptions introspection;
  introspection.metrics = &stream_registry;
  introspection.events = &stream_events;
  introspection.board = &board;
  introspection.tracer = tracer_.get();
  introspection.slo = slo_.get();
  serve::HttpServer stream_server;
  serve::RegisterIntrospectionEndpoints(&stream_server, introspection);
  ASSERT_TRUE(stream_server.Start(0).ok());

  // More completed traces than /tracez ever serves at once.
  for (int i = 0; i < 300; ++i) {
    const obs::TraceContext trace = tracer_->Mint();
    tracer_->Begin(trace, "alpha");
    tracer_->RecordStage(trace, obs::Stage::kIngest);
    tracer_->RecordStage(trace, obs::Stage::kStep);
  }

  for (const uint16_t port : {shard_port, stream_server.port()}) {
    SCOPED_TRACE(port == shard_port ? "shard" : "stream");
    auto all = Fetch(port, "/tracez?tenant=alpha&n=100000");
    ASSERT_EQ(all.status, 200) << all.body.substr(0, 400);
    EXPECT_EQ(CountTraces(all.body), 256u);
    auto malformed = Fetch(port, "/tracez?tenant=alpha&n=many");
    ASSERT_EQ(malformed.status, 200);
    EXPECT_EQ(CountTraces(malformed.body), 20u);

    for (const std::string target :
         {"/metrics", "/healthz", "/statusz", "/eventsz?tenant=alpha",
          "/tracez", "/slosz"}) {
      EXPECT_EQ(Post(port, target).status, 405) << target;
      EXPECT_EQ(Fetch(port, target).status, 200) << target;
    }
  }
  stream_server.Stop();
}

}  // namespace
}  // namespace nidc::shard
