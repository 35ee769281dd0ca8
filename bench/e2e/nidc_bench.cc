// nidc_bench — open-loop end-to-end benchmark of the sharded ingest
// service (see README.md for the metrics, workloads and calibration).
//
//   nidc_bench --workload=<name|all> --seed=N [--seconds=S] [--reps=R]
//              [--trace=FILE] [--json=FILE] [--dir=DIR] [--verify] [--smoke]
//
// The service runs in this process, wired like `nidc_cli serve`: a
// ShardService with one shard per hardware thread, an HttpServer with four
// keep-alive workers, the shard HTTP handlers, the request tracer and the
// SLO engine with its one-second Evaluate tick. The load generator runs
// on separate threads and reaches the service only over loopback HTTP —
// three ingest connections (tenants pinned to one each, so a tenant's
// batches stay in order) and, in the `mixed` workload, one read
// connection.
//
// A run of one workload: set-up, an untimed closed-loop warm-up, then
// rounds of a timed open loop (every batch sent at its intended time and
// timed from it, so a stall counts against every request it delays), a
// flush that closes its last windows, and a timed closed-loop drain
// (capacity); a final flush, and the correctness checks. Between these
// phases more services are set up and stopped, and setup_s is the median
// of all the set-ups. Every metric prints as
//   <workload> <metric> <value> <unit> n=<samples>
// and with --json the same data goes to FILE. The exit code is non-zero
// when any check fails.
//
// --trace=FILE additionally derives one span tree per batch from the
// service's own RequestTracer stamps, replays every batch single-threaded
// through the layers Tenant::Ingest composes (replay.h), prints the
// per-window layer ledger and writes all spans as Chrome-trace JSON.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fingerprint.h"
#include "http_client.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/serve/http_server.h"
#include "nidc/shard/http.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/service.h"
#include "nidc/shard/tenant.h"
#include "nidc/util/crc32.h"
#include "nidc/util/fault_env.h"
#include "replay.h"
#include "schedule.h"
#include "stats.h"

namespace nidc::e2e {
namespace {

using obs::Stage;

double Now() { return obs::RequestTracer::NowSeconds(); }

void SleepUntil(double when) {
  const double wait = when - Now();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// ---------------------------------------------------------------------------
// Options and metrics.

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 12.0;
  int reps = 1;
  std::string trace_file;
  std::string json_file;
  std::string dir = "nidc_bench_run";
  bool verify = false;
  bool smoke = false;
};

enum class Kind { kEndToEnd, kLayer, kInfo };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEndToEnd:
      return "end_to_end";
    case Kind::kLayer:
      return "per_layer";
    case Kind::kInfo:
      return "info";
  }
  return "info";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 0;
  Kind kind = Kind::kInfo;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t n, Kind kind) {
    all_.push_back({name, value, unit, n, kind});
  }

  // `<family>_p95_ms` under `kind`, plus the highest percentile the
  // sample supports as info when that is above p95.
  void AddTail(const std::string& family,
               const std::vector<double>& samples_ms, Kind kind) {
    Add(family + "_p95_ms", Quantile(samples_ms, 0.95), "ms",
        samples_ms.size(), kind);
    const double top = HighestSupportedQuantile(samples_ms.size());
    if (top > 0.95) {
      Add(family + "_" + QuantileLabel(top) + "_ms",
          Quantile(samples_ms, top), "ms", samples_ms.size(), Kind::kInfo);
    }
  }

  // `<family>_p50_ms` and the tail, both under `kind`.
  void AddLatency(const std::string& family,
                  const std::vector<double>& samples_ms, Kind kind) {
    Add(family + "_p50_ms", Quantile(samples_ms, 0.5), "ms",
        samples_ms.size(), kind);
    AddTail(family, samples_ms, kind);
  }

  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

// ---------------------------------------------------------------------------
// The service under test, wired like `nidc_cli serve` (tools/nidc_cli.cc).

class Server {
 public:
  Server()
      : slo_(SloOptions(&registry_)),
        tracer_(TracerOptions(&registry_, &slo_)),
        http_(serve::HttpServerOptions{}, &registry_) {}

  ~Server() {
    http_.Stop();
    if (service_ != nullptr) service_->Stop();
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start(const std::string& root,
               const shard::TenantConfig& default_config) {
    shard::ShardServiceOptions options;
    options.root = root;
    options.metrics = &registry_;
    options.tracer = &tracer_;
    Result<std::unique_ptr<shard::ShardService>> service =
        shard::ShardService::Start(std::move(options));
    if (!service.ok()) return service.status();
    service_ = std::move(service).value();
    shard::RegisterShardHandlers(&http_, service_.get(), default_config,
                                 &tracer_, &slo_);
    return http_.Start(0);
  }

  uint16_t port() const { return http_.port(); }
  shard::ShardService& service() { return *service_; }
  obs::RequestTracer& tracer() { return tracer_; }
  obs::SloEngine& slo() { return slo_; }
  obs::MetricsRegistry& registry() { return registry_; }

 private:
  static obs::SloEngine::Options SloOptions(obs::MetricsRegistry* registry) {
    obs::SloEngine::Options options;
    options.default_objective.latency_threshold_seconds = 1.0;
    options.metrics = registry;
    return options;
  }

  static obs::RequestTracer::Options TracerOptions(
      obs::MetricsRegistry* registry, obs::SloEngine* slo) {
    obs::RequestTracer::Options options;
    options.metrics = registry;
    options.on_complete = [slo](const std::string& tenant, double e2e,
                                double now) {
      slo->ObserveLatency(tenant, e2e, now);
    };
    return options;
  }

  obs::MetricsRegistry registry_;
  obs::SloEngine slo_;
  obs::RequestTracer tracer_;
  std::unique_ptr<shard::ShardService> service_;
  serve::HttpServer http_;
};

// ---------------------------------------------------------------------------
// Requests and the generator threads.

struct Request {
  size_t tenant = 0;
  size_t batch = 0;  // index into the tenant's feed
  size_t piece = 0;  // body index within the batch
  // Open-loop requests wait for `intended` (absolute) and are measured;
  // closed-loop ones (warm-up, drain) go as fast as they are answered.
  bool open = false;
  int round = 0;  // of an open-loop request
  double intended = 0.0;
  obs::TraceContext trace;
  // Written by the one generator thread that owns the request.
  double sent = -1.0;
  double acked = -1.0;
  int status = 0;  // final status (202 once accepted)
  int attempts = 0;
  int refusals = 0;  // 429 answers before the final one
  int errors = 0;    // transport errors and unexpected statuses
};

struct Read {
  int round = 0;
  double intended = 0.0;
  double done = -1.0;
  int status = 0;
};

struct Feeds {
  std::vector<std::vector<DayBatch>> tenants;
  std::vector<size_t> docs_sent;  // up to the plan's end day
};

// Sends `indices` of `requests` in order on one connection. Open-loop
// requests wait for their intended time; every request is retried after a
// 1 ms pause on 429 (Retry-After ignored) until accepted, and up to three
// times on a transport error.
void RunIngestConnection(uint16_t port, const Feeds& feeds,
                         std::vector<Request>* requests,
                         const std::vector<size_t>& indices) {
  HttpConnection conn(port);
  conn.Connect();
  for (size_t index : indices) {
    Request& req = (*requests)[index];
    const std::string& body =
        feeds.tenants[req.tenant][req.batch].bodies[req.piece];
    const std::string target = "/ingest?tenant=" + TenantName(req.tenant);
    const std::string traceparent =
        req.trace.valid() ? req.trace.ToTraceparent() : "";
    if (req.open) SleepUntil(req.intended);
    req.sent = Now();
    for (;;) {
      ++req.attempts;
      Result<HttpReply> reply = conn.Send("POST", target, body, traceparent);
      if (!reply.ok()) {
        if (++req.errors > 3) break;
        continue;
      }
      req.status = reply->status;
      if (reply->status == 202) break;
      if (reply->status != 429) {
        ++req.errors;
        break;
      }
      ++req.refusals;
      SleepMs(1.0);
    }
    req.acked = Now();
  }
}

// Runs one generator thread per non-empty connection list, plus `extra`
// when given, while `monitor` polls on the calling thread every 50 ms.
void RunGenerators(uint16_t port, const Feeds& feeds,
                   std::vector<Request>* requests,
                   const std::vector<std::vector<size_t>>& connections,
                   std::function<void()> extra,
                   const std::function<void()>& monitor) {
  std::atomic<size_t> running{0};
  std::vector<std::thread> threads;
  for (const std::vector<size_t>& indices : connections) {
    if (indices.empty()) continue;
    ++running;
    threads.emplace_back([&, &indices = indices] {
      RunIngestConnection(port, feeds, requests, indices);
      --running;
    });
  }
  if (extra) {
    ++running;
    threads.emplace_back([&] {
      extra();
      --running;
    });
  }
  while (running.load() > 0) {
    SleepMs(50.0);
    monitor();
  }
  for (std::thread& thread : threads) thread.join();
}

// Closed-loop request lists for days [begin, end): per connection, days in
// order, the connection's tenants in order within a day.
std::vector<std::vector<size_t>> AddClosedLoop(const Feeds& feeds, int begin,
                                               int end,
                                               std::vector<Request>* out) {
  std::vector<std::vector<size_t>> connections(kIngestConnections);
  std::vector<std::tuple<int, size_t, size_t>> order;  // day, tenant, batch
  for (size_t t = 0; t < feeds.tenants.size(); ++t) {
    for (size_t b = 0; b < feeds.tenants[t].size(); ++b) {
      const int day = feeds.tenants[t][b].day;
      if (day >= begin && day < end) order.emplace_back(day, t, b);
    }
  }
  std::sort(order.begin(), order.end());
  for (const auto& [day, t, b] : order) {
    for (size_t p = 0; p < feeds.tenants[t][b].bodies.size(); ++p) {
      Request req;
      req.tenant = t;
      req.batch = b;
      req.piece = p;
      connections[ConnectionOf(t, kIngestConnections)].push_back(out->size());
      out->push_back(req);
    }
  }
  return connections;
}

std::string ReadTarget(const Workload& workload, size_t i) {
  const std::string tenant = TenantName(i % workload.tenants);
  if (i % 20 == 19) return "/digestz?tenant=" + tenant;
  switch (i % 5) {
    case 0:
      return "/metrics?tenant=" + tenant;
    case 1:
      return "/statusz?tenant=" + tenant;
    case 2:
      return "/tracez?tenant=" + tenant + "&n=10";
    case 3:
      return "/tenantz";
    default:
      return "/metricsz";
  }
}

// ---------------------------------------------------------------------------
// Trace harvesting: the tracer keeps a bounded table, so the main thread
// copies the stamps of every open-loop trace out of it while the run goes.

struct Harvest {
  std::array<double, obs::kNumStages> stamp;
  int polls_since_step = 0;
  bool final = false;
  Harvest() { stamp.fill(-1.0); }
  double at(Stage stage) const { return stamp[static_cast<size_t>(stage)]; }
};

void HarvestPass(obs::RequestTracer& tracer,
                 const std::vector<Request>& requests,
                 const std::vector<size_t>& open,
                 std::vector<Harvest>* harvest, double now) {
  for (size_t index : open) {
    Harvest& h = (*harvest)[index];
    if (h.final || requests[index].intended > now) continue;
    obs::TraceRecord record;
    if (!tracer.Lookup(requests[index].trace, &record)) continue;
    for (const obs::StageStamp& stamp : record.stages) {
      double& slot = h.stamp[static_cast<size_t>(stamp.stage)];
      if (slot < 0.0) slot = stamp.seconds;
    }
    // The checkpoint stamp, when the step rotated one, lands right after
    // the step stamp; give it a few polls before settling.
    if (h.at(Stage::kStep) >= 0.0 &&
        (h.at(Stage::kCheckpoint) >= 0.0 || ++h.polls_since_step >= 3)) {
      h.final = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Tenants outside the service: the restart population and the reference.

Status FeedTenant(shard::Tenant* tenant, const std::vector<DayBatch>& feed,
                  int end_day) {
  for (const DayBatch& batch : feed) {
    if (batch.day >= end_day) break;
    for (const std::string& body : batch.bodies) {
      Result<std::vector<RawDocument>> docs = shard::ParseIngestJsonl(body);
      if (!docs.ok()) return docs.status();
      NIDC_RETURN_NOT_OK(tenant->Ingest(*docs));
    }
  }
  return Status::OK();
}

// Runs fn(t) for every t in `tenants` on at most four threads.
void ParallelTenants(const std::vector<size_t>& tenants,
                     const std::function<void(size_t)>& fn) {
  const size_t workers = std::min<size_t>(4, tenants.size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < tenants.size(); i += workers) fn(tenants[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// The restart workload's population: days [0, end_day) through one
// standalone Tenant per tenant on its own FaultInjectionEnv, crashed at
// the next I/O operation before destruction — a process kill that leaves
// the WAL tail since the last checkpoint for recovery to replay.
Status Populate(const std::string& root, const Workload& workload,
                const Feeds& feeds, int end_day) {
  NIDC_RETURN_NOT_OK(Env::Default()->CreateDir(root));
  NIDC_RETURN_NOT_OK(Env::Default()->CreateDir(root + "/tenants"));
  std::vector<size_t> all(workload.tenants);
  for (size_t t = 0; t < all.size(); ++t) all[t] = t;
  std::vector<Status> status(workload.tenants);
  ParallelTenants(all, [&](size_t t) {
    FaultInjectionEnv env(Env::Default());
    shard::TenantRuntime runtime;
    runtime.env = &env;
    Result<std::unique_ptr<shard::Tenant>> tenant = shard::Tenant::Create(
        TenantName(t), root + "/tenants/" + TenantName(t),
        MakeTenantConfig(workload), runtime);
    if (!tenant.ok()) {
      status[t] = tenant.status();
      return;
    }
    status[t] = FeedTenant(tenant->get(), feeds.tenants[t], end_day);
    env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
    tenant->reset();
  });
  for (const Status& s : status) NIDC_RETURN_NOT_OK(s);
  return Status::OK();
}

// The standalone-Tenant reference: the same batches through the CLI's
// ingest path, no server, queues or shard threads.
std::map<size_t, std::string> ReferenceDigests(
    const std::string& dir, const Workload& workload, const Feeds& feeds,
    const std::vector<size_t>& tenants, int end_day,
    std::vector<std::string>* failures) {
  std::map<size_t, std::string> digests;
  std::vector<std::string> out(workload.tenants);
  std::vector<Status> status(workload.tenants);
  Env::Default()->CreateDir(dir);
  ParallelTenants(tenants, [&](size_t t) {
    Result<std::unique_ptr<shard::Tenant>> tenant = shard::Tenant::Create(
        TenantName(t), dir + "/" + TenantName(t), MakeTenantConfig(workload),
        shard::TenantRuntime());
    if (!tenant.ok()) {
      status[t] = tenant.status();
      return;
    }
    status[t] = FeedTenant(tenant->get(), feeds.tenants[t], end_day);
    if (status[t].ok()) status[t] = (*tenant)->FlushUntil(end_day);
    out[t] = (*tenant)->StateDigest();
  });
  for (size_t t : tenants) {
    if (!status[t].ok()) {
      failures->push_back("reference " + TenantName(t) + ": " +
                          status[t].ToString());
    } else {
      digests[t] = out[t];
    }
  }
  return digests;
}

std::string CrcHex(const std::string& digest) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(digest));
  return buf;
}

// Feed identity: workloads with the same family and end day must end in
// the same per-tenant states (paper8, mixed and restart share one).
std::string Family(const Workload& workload) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zux%gk%zu", workload.tenants,
                workload.scale, workload.k);
  return buf;
}

// Committed digests: "<family> <seed> <end_day> <tenant> <crc32c>" lines.
std::map<std::string, std::string> LoadFixtures() {
  std::map<std::string, std::string> fixtures;
  std::ifstream in(std::string(NIDC_FIXTURE_DIR) + "/digests.tsv");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string family, seed, end_day, tenant, crc;
    if (fields >> family >> seed >> end_day >> tenant >> crc) {
      fixtures[family + " " + seed + " " + end_day + " " + tenant] = crc;
    }
  }
  return fixtures;
}

// ---------------------------------------------------------------------------
// Process memory.

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atof(line.c_str() + len + 1);
    }
  }
  return 0.0;
}

// Resets VmHWM to the current RSS (Linux clear_refs "5").
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// ---------------------------------------------------------------------------
// One run of one workload.

struct RunResult {
  Metrics metrics;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> digests;  // per tenant
  std::vector<Span> spans;
};

struct Context {
  const Options& options;
  const Workload& workload;
  const Plan& plan;
  const Feeds& feeds;
  int rep = 0;
};

// The closed-loop drains of a run. Capacity is their docs over their
// time: the rounds drain different stretches of the corpus, whose active
// sets and burst sizes differ, so a median of per-drain rates would pick
// between unlike drains.
struct Drained {
  size_t docs = 0;
  double seconds = 0.0;
  size_t drains = 0;
};

// Per-window stage intervals, from the closing batch's front-door stamps
// and the window's own stamps.
struct WindowLayers {
  std::vector<double> front, admit, queue, apply, prep, wal, step, checkpoint;
};

class WorkloadRun {
 public:
  explicit WorkloadRun(const Context& ctx) : ctx_(ctx) {}

  RunResult Run();

 private:
  const Workload& w() const { return ctx_.workload; }
  void Fail(const std::string& what) { result_.failures.push_back(what); }
  shard::TenantConfig Config() const { return MakeTenantConfig(w()); }

  // One set-up, of a service over <root>/setup<i> for the i-th sample (a
  // copy of the crashed population for restart); records its time in
  // setup_samples_. The directory stays until the run ends, so that its
  // deletion does not land in a later sample's journal commits.
  std::unique_ptr<Server> SetUp();
  // One of the run's pauses_ pauses: set-ups of services that are stopped
  // right away, up to this pause's share of the run's setups_. Their
  // memory stays out of rss_mb: the peak so far is banked in peak_kb_ and
  // the peak is reset once they are gone.
  void Pause();
  // POST /tenantz?<query> on a fresh connection (an idle keep-alive one
  // would hold one of the four HTTP workers).
  void Control(const std::string& query);
  // Flushes every tenant's windows up to `day` and waits until the shards
  // have applied everything.
  void FlushAll(int day);
  void Monitor(Server* server);
  // The open loop of round `round`, then a flush that closes its last
  // windows and the collection of its traces' stamps.
  void RunOpenLoop(Server* server, int round);
  // Days [begin, end) closed-loop up to a drain barrier, added to
  // `drained`.
  void RunDrain(Server* server, int begin, int end, Drained* drained);
  void CheckService(Server* server);
  void ComputeMetrics(Server* server, const Drained& drained, double rss_mb);
  void VerifyDigests();
  void TracedReplay(double fresh_p50_ms);

  const Context& ctx_;
  RunResult result_;
  std::vector<Request> requests_;
  std::vector<size_t> open_;
  std::vector<Harvest> harvest_;
  std::vector<Read> reads_;
  WindowLayers layers_;
  std::vector<double> fresh_ms_;
  uint64_t trace_hi_ = 0;
  size_t monitor_ticks_ = 0;
  size_t queue_depth_max_ = 0;
  // The current round's open loop, for Monitor.
  double open_mid_time_ = 0.0;
  double open_end_time_ = 0.0;
  double backlog_mid_ = -1.0;
  // Per round: the open loop's wall time, and the queue depth at its end
  // minus at its midpoint.
  std::vector<double> open_seconds_;
  std::vector<double> backlog_growth_;
  std::vector<double> setup_samples_;
  int setups_ = 0;
  int pauses_ = 0;
  int pause_ = 0;  // pauses taken
  double peak_kb_ = 0.0;  // VmHWM before the last reset
  uint16_t port_ = 0;
  std::string root_;
};

std::unique_ptr<Server> WorkloadRun::SetUp() {
  const std::string root =
      root_ + "/setup" + std::to_string(setup_samples_.size());
  const double start = Now();
  auto server = std::make_unique<Server>();
  if (Status started = server->Start(root, Config()); !started.ok()) {
    Fail("start: " + started.ToString());
    return nullptr;
  }
  if (!w().restart) {
    const shard::TenantConfig config = Config();
    HttpConnection conn(server->port());
    char query[256];
    for (size_t t = 0; t < w().tenants; ++t) {
      std::snprintf(query, sizeof(query),
                    "/tenantz?op=create&tenant=%s&k=%zu&half_life=%g"
                    "&life_span=%g&step=%g&start=%g&seed=%llu",
                    TenantName(t).c_str(), config.k,
                    config.params.half_life_days,
                    config.params.life_span_days, config.step_days,
                    config.start_time,
                    static_cast<unsigned long long>(config.seed));
      Result<HttpReply> reply = conn.Send("POST", query);
      if (!reply.ok() || reply->status != 200) {
        Fail("create " + TenantName(t) + " failed");
        return nullptr;
      }
    }
  }
  setup_samples_.push_back(Now() - start);
  return server;
}

void WorkloadRun::Pause() {
  ++pause_;
  const size_t due = static_cast<size_t>(setups_ * pause_ / pauses_);
  if (setup_samples_.size() >= due) return;
  peak_kb_ = std::max(peak_kb_, StatusKb("VmHWM"));
  while (setup_samples_.size() < due) {
    if (SetUp() == nullptr) break;
  }
  malloc_trim(0);
  ResetPeakRss();
}

void WorkloadRun::Control(const std::string& query) {
  HttpConnection conn(port_);
  Result<HttpReply> reply = conn.Send("POST", "/tenantz?" + query);
  if (!reply.ok() || reply->status != 200) Fail("POST /tenantz?" + query);
}

void WorkloadRun::FlushAll(int day) {
  for (size_t t = 0; t < w().tenants; ++t) {
    Control("op=flush&tenant=" + TenantName(t) +
            "&until=" + std::to_string(day));
  }
  Control("op=drain");
}

void WorkloadRun::Monitor(Server* server) {
  const double now = Now();
  ++monitor_ticks_;
  shard::ShardService& service = server->service();
  if (now < open_end_time_) {
    for (size_t s = 0; s < service.num_shards(); ++s) {
      queue_depth_max_ = std::max(queue_depth_max_, service.QueueDepth(s));
    }
  }
  if (backlog_mid_ < 0.0 && now >= open_mid_time_) {
    backlog_mid_ = static_cast<double>(service.TotalQueueDepth());
  }
  // `nidc_cli serve` evaluates burn rates once a second.
  if (monitor_ticks_ % 20 == 0) server->slo().Evaluate(now);
  if (monitor_ticks_ % 2 == 0) {
    HarvestPass(server->tracer(), requests_, open_, &harvest_, now);
  }
}

void WorkloadRun::RunOpenLoop(Server* server, int round) {
  const Plan& plan = ctx_.plan;
  const Feeds& feeds = ctx_.feeds;
  const int first_day = plan.OpenBegin(round);
  const int last_day = plan.DrainBegin(round);
  const double day_s = w().day_ms / 1000.0;
  const double start = Now() + 0.05;
  std::vector<std::vector<size_t>> conns(kIngestConnections);
  std::vector<std::tuple<double, size_t, size_t>> order;  // offset, t, b
  for (size_t t = 0; t < w().tenants; ++t) {
    for (size_t b = 0; b < feeds.tenants[t].size(); ++b) {
      const int day = feeds.tenants[t][b].day;
      if (day < first_day || day >= last_day) continue;
      order.emplace_back(
          IntendedOffset(day, first_day, t, w().tenants, day_s), t, b);
    }
  }
  std::sort(order.begin(), order.end());
  for (const auto& [offset, t, b] : order) {
    for (size_t p = 0; p < feeds.tenants[t][b].bodies.size(); ++p) {
      Request req;
      req.tenant = t;
      req.batch = b;
      req.piece = p;
      req.open = true;
      req.round = round;
      req.intended = start + offset;
      req.trace.hi = trace_hi_;
      req.trace.lo = requests_.size() + 1;
      conns[ConnectionOf(t, kIngestConnections)].push_back(requests_.size());
      open_.push_back(requests_.size());
      requests_.push_back(req);
    }
  }
  harvest_.resize(requests_.size());
  const double length = (last_day - first_day) * day_s;
  open_mid_time_ = start + length / 2.0;
  open_end_time_ = start + length;
  backlog_mid_ = -1.0;
  std::function<void()> read_loop;
  if (w().reads) {
    read_loop = [&] {
      HttpConnection conn(port_);
      conn.Connect();
      for (size_t i = 0;; ++i) {
        Read read;
        read.round = round;
        read.intended = start + static_cast<double>(i) / kReadsPerSecond;
        if (read.intended >= open_end_time_) break;
        SleepUntil(read.intended);
        Result<HttpReply> reply = conn.Send("GET", ReadTarget(w(), i));
        read.status = reply.ok() ? reply->status : 0;
        read.done = Now();
        reads_.push_back(read);
      }
    };
  }
  RunGenerators(port_, feeds, &requests_, conns, read_loop,
                [&] { Monitor(server); });
  open_seconds_.push_back(Now() - start);
  backlog_growth_.push_back(
      static_cast<double>(server->service().TotalQueueDepth()) -
      std::max(backlog_mid_, 0.0));

  // Close every tenant's last open-loop window before the drain floods the
  // tracer's bounded table (each request, refused or not, begins a trace):
  // flushing to the drain's first day steps exactly the windows its first
  // batch would have, so the final states do not change. Then collect the
  // last stamps of every open-loop trace.
  FlushAll(last_day);
  for (int pass = 0; pass < 50; ++pass) {
    HarvestPass(server->tracer(), requests_, open_, &harvest_, Now());
    bool all_final = true;
    for (size_t index : open_) all_final &= harvest_[index].final;
    if (all_final) break;
    SleepMs(20.0);
  }
}

void WorkloadRun::RunDrain(Server* server, int begin, int end,
                           Drained* drained) {
  for (size_t t = 0; t < w().tenants; ++t) {
    for (const DayBatch& batch : ctx_.feeds.tenants[t]) {
      if (batch.day >= begin && batch.day < end) drained->docs += batch.docs;
    }
  }
  const double start = Now();
  auto drain = AddClosedLoop(ctx_.feeds, begin, end, &requests_);
  RunGenerators(port_, ctx_.feeds, &requests_, drain, nullptr,
                [&] { Monitor(server); });
  Control("op=drain");
  drained->seconds += Now() - start;
  ++drained->drains;
}

RunResult WorkloadRun::Run() {
  const Plan& plan = ctx_.plan;
  const Feeds& feeds = ctx_.feeds;
  root_ = ctx_.options.dir + "/" + w().name;
  std::filesystem::remove_all(root_);
  std::filesystem::create_directories(root_);

  // Set-up, w().setups times, spread over the run's pauses: before the
  // warm-up (the first set-up is the service the run measures), after it,
  // after each open loop and each drain, and at the end. So setup_s, their
  // median, follows the host over the whole run instead of one slow or
  // fast moment of it.
  pauses_ = 2 + 2 * plan.rounds + (w().restart ? 0 : 1);
  setups_ = ctx_.options.smoke ? pauses_ : w().setups;
  if (w().restart) {
    if (Status populated =
            Populate(root_ + "/populated", w(), feeds, plan.open_begin);
        !populated.ok()) {
      Fail("populate: " + populated.ToString());
      return std::move(result_);
    }
    for (int i = 0; i < setups_; ++i) {
      std::filesystem::copy(root_ + "/populated",
                            root_ + "/setup" + std::to_string(i),
                            std::filesystem::copy_options::recursive);
    }
  }
  // Hand freed heap back first, so the service's growth faults in pages of
  // its own instead of reusing ones the feed generation left resident.
  malloc_trim(0);
  const double rss_before_kb = StatusKb("VmRSS");
  ResetPeakRss();
  std::unique_ptr<Server> server = SetUp();
  if (server == nullptr) return std::move(result_);
  port_ = server->port();
  Pause();

  // Warm-up: closed loop, untimed (the restart population replaces it).
  if (!w().restart) {
    auto warm = AddClosedLoop(feeds, 0, plan.open_begin, &requests_);
    RunGenerators(port_, feeds, &requests_, warm, nullptr, [] {});
    // Accepted is not applied: let the shards work off the warm-up's queue
    // before the open loop starts, or it would start behind a backlog.
    Control("op=drain");
    Pause();
  }

  // Rounds of an open loop and a closed-loop drain, so that the latency
  // and the capacity samples each span the whole run, not one stretch of
  // it: the host's speed wanders over tens of seconds.
  trace_hi_ = 0x6e6964635f653265ULL ^ (ctx_.options.seed << 20) ^
              (static_cast<uint64_t>(ctx_.rep) << 8) ^
              std::hash<std::string>()(w().name);
  if (trace_hi_ == 0) trace_hi_ = 1;
  Drained drained;
  for (int round = 0; round < plan.rounds; ++round) {
    RunOpenLoop(server.get(), round);
    Pause();
    RunDrain(server.get(), plan.DrainBegin(round), plan.OpenBegin(round + 1),
             &drained);
    Pause();
  }
  FlushAll(plan.end_day);

  const double peak_kb = std::max(peak_kb_, StatusKb("VmHWM"));
  const double rss_mb = std::max(0.0, peak_kb - rss_before_kb) / 1024.0;

  CheckService(server.get());
  ComputeMetrics(server.get(), drained, rss_mb);
  server.reset();

  VerifyDigests();
  if (!ctx_.options.trace_file.empty()) {
    double fresh_p50 = 0.0;
    for (const Metric& m : result_.metrics.all()) {
      if (m.name == "fresh_p50_ms") fresh_p50 = m.value;
    }
    TracedReplay(fresh_p50);
  }
  Pause();
  result_.metrics.Add("setup_s", Quantile(setup_samples_, 0.5), "s",
                      setup_samples_.size(), Kind::kEndToEnd);
  std::filesystem::remove_all(root_);
  return std::move(result_);
}

void WorkloadRun::CheckService(Server* server) {
  // Every batch eventually accepted.
  size_t unaccepted = 0;
  for (const Request& req : requests_) {
    result_.attempted += static_cast<uint64_t>(req.attempts);
    // A 429 in the closed-loop phases is the backpressure contract at
    // work; in the open loop it is a refused request.
    if (req.open) result_.failed += req.refusals;
    result_.failed += static_cast<uint64_t>(req.errors);
    if (req.status != 202) ++unaccepted;
  }
  if (unaccepted > 0) {
    Fail(std::to_string(unaccepted) + " ingest requests never accepted");
  }
  size_t bad_reads = 0;
  for (const Read& read : reads_) {
    ++result_.attempted;
    if (read.status != 200) ++bad_reads;
  }
  result_.failed += bad_reads;
  if (bad_reads > 0) Fail(std::to_string(bad_reads) + " reads failed");

  // docs_ingested equals the docs sent.
  HttpConnection conn(server->port());
  Result<HttpReply> tenantz = conn.Send("GET", "/tenantz");
  Result<obs::JsonValue> parsed =
      tenantz.ok() ? obs::ParseJson(tenantz->body)
                   : Result<obs::JsonValue>(tenantz.status());
  std::map<std::string, double> ingested;
  if (parsed.ok() && parsed->Find("tenants") != nullptr) {
    for (const obs::JsonValue& row : parsed->Find("tenants")->array) {
      const obs::JsonValue* name = row.Find("name");
      const obs::JsonValue* docs = row.Find("docs_ingested");
      if (name != nullptr && docs != nullptr) {
        ingested[name->string_value] = docs->number;
      }
    }
  }
  for (size_t t = 0; t < w().tenants; ++t) {
    const double got = ingested.count(TenantName(t)) != 0
                           ? ingested[TenantName(t)]
                           : -1.0;
    if (got != static_cast<double>(ctx_.feeds.docs_sent[t])) {
      Fail(TenantName(t) + " ingested " + std::to_string(got) +
           " docs, sent " + std::to_string(ctx_.feeds.docs_sent[t]));
    }
  }

  // Every open-loop trace completed, and the stage ring never lapped.
  size_t incomplete = 0;
  for (size_t index : open_) {
    if (harvest_[index].at(Stage::kStep) < 0.0) ++incomplete;
  }
  if (incomplete > 0) {
    Fail(std::to_string(incomplete) + " traces never completed");
  }
  if (const uint64_t dropped = server->tracer().stage_events_dropped();
      dropped != 0) {
    Fail("pipeline.stage_events_dropped = " + std::to_string(dropped));
  }

  // Final per-tenant states, read the way a client reads them.
  for (size_t t = 0; t < w().tenants; ++t) {
    Result<HttpReply> reply =
        conn.Send("GET", "/digestz?tenant=" + TenantName(t));
    if (!reply.ok() || reply->status != 200) {
      Fail("digest " + TenantName(t) + " unavailable");
      result_.digests.push_back("");
    } else {
      result_.digests.push_back(reply->body);
    }
  }
}

void WorkloadRun::ComputeMetrics(Server* server, const Drained& drained,
                                 double rss_mb) {
  Metrics& m = result_.metrics;
  const Feeds& feeds = ctx_.feeds;
  const size_t rounds = static_cast<size_t>(ctx_.plan.rounds);
  shard::ShardService& service = server->service();

  // Per-request samples of the open loops, by round.
  std::vector<std::vector<double>> ack_parts(rounds), read_parts(rounds),
      fresh_parts(rounds);
  std::vector<double> ack_ms, read_ms, late_ms;
  uint64_t open_attempts = 0, open_non2xx = 0, refused = 0;
  for (size_t index : open_) {
    const Request& req = requests_[index];
    const bool missed = req.refusals > 0 || req.status != 202;
    ack_ms.push_back(missed ? kMissedMs : (req.acked - req.intended) * 1e3);
    ack_parts[req.round].push_back(ack_ms.back());
    late_ms.push_back(Lateness(req.intended, req.sent) * 1e3);
    open_attempts += static_cast<uint64_t>(req.attempts);
    open_non2xx += static_cast<uint64_t>(req.refusals + req.errors);
    refused += static_cast<uint64_t>(req.refusals);
  }
  for (const Read& read : reads_) {
    read_ms.push_back(read.status == 200 ? (read.done - read.intended) * 1e3
                                         : kMissedMs);
    read_parts[read.round].push_back(read_ms.back());
  }

  // Per-window samples: each tenant's batches of one round in day order,
  // the window of batch i closed by batch i+1's first request.
  std::map<std::pair<size_t, size_t>, std::vector<size_t>> pieces;
  for (size_t index : open_) {
    pieces[{requests_[index].tenant, requests_[index].batch}].push_back(index);
  }
  const auto first_stamp = [&](const std::vector<size_t>& indices,
                               Stage stage) {
    double best = -1.0;
    for (size_t index : indices) {
      const double at = harvest_[index].at(stage);
      if (at >= 0.0 && (best < 0.0 || at < best)) best = at;
    }
    return best;
  };
  std::vector<double> shard_busy(service.num_shards(), 0.0);
  std::vector<double> shard_docs(service.num_shards(), 0.0);
  std::set<std::pair<size_t, double>> checkpoints;
  for (size_t t = 0; t < w().tenants; ++t) {
    const size_t shard = service.ShardOf(TenantName(t));
    std::vector<std::vector<BatchTiming>> timings(rounds);
    std::vector<std::vector<const std::vector<size_t>*>> batch_pieces(rounds);
    for (size_t b = 0; b < feeds.tenants[t].size(); ++b) {
      auto it = pieces.find({t, b});
      if (it == pieces.end()) continue;
      const Request& first = requests_[it->second.front()];
      BatchTiming timing;
      timing.intended = first.intended;
      timing.step = first_stamp(it->second, Stage::kStep);
      timing.refused = first.refusals > 0 || first.status != 202;
      timings[first.round].push_back(timing);
      batch_pieces[first.round].push_back(&it->second);
      shard_docs[shard] += static_cast<double>(feeds.tenants[t][b].docs);
    }
    for (size_t r = 0; r < rounds; ++r) {
      for (double fresh : FreshSamplesMs(timings[r])) {
        fresh_ms_.push_back(fresh);
        fresh_parts[r].push_back(fresh);
      }
      for (size_t i = 0; i + 1 < batch_pieces[r].size(); ++i) {
        const std::vector<size_t>& window = *batch_pieces[r][i];
        const Harvest& closer = harvest_[batch_pieces[r][i + 1]->front()];
        const double intended = timings[r][i + 1].intended;
        const double ingest = closer.at(Stage::kIngest);
        const double enqueue = closer.at(Stage::kEnqueue);
        const double dequeue = closer.at(Stage::kDequeue);
        const double close = first_stamp(window, Stage::kWindowClose);
        const double wal = first_stamp(window, Stage::kWalCommit);
        const double step = first_stamp(window, Stage::kStep);
        const double ckpt = first_stamp(window, Stage::kCheckpoint);
        if (ingest < 0.0 || enqueue < 0.0 || dequeue < 0.0 || close < 0.0 ||
            wal < 0.0 || step < 0.0) {
          continue;
        }
        layers_.front.push_back((ingest - intended) * 1e3);
        layers_.admit.push_back((enqueue - ingest) * 1e3);
        layers_.queue.push_back((dequeue - enqueue) * 1e3);
        layers_.apply.push_back((step - dequeue) * 1e3);
        layers_.prep.push_back((close - dequeue) * 1e3);
        layers_.wal.push_back((wal - close) * 1e3);
        layers_.step.push_back((step - wal) * 1e3);
        if (ckpt >= 0.0) {
          layers_.checkpoint.push_back((ckpt - step) * 1e3);
          checkpoints.insert({t, ckpt});
        }
        shard_busy[shard] += (ckpt >= 0.0 ? ckpt : step) - dequeue;
        const int tid = 100 + static_cast<int>(t);
        const int pid = 1;
        result_.spans.push_back(
            {"front", pid, tid, intended, ingest - intended});
        result_.spans.push_back({"admit", pid, tid, ingest, enqueue - ingest});
        result_.spans.push_back(
            {"queue", pid, tid, enqueue, dequeue - enqueue});
        result_.spans.push_back({"prep", pid, tid, dequeue, close - dequeue});
        result_.spans.push_back({"wal", pid, tid, close, wal - close});
        result_.spans.push_back({"step", pid, tid, wal, step - wal});
        if (ckpt >= 0.0) {
          result_.spans.push_back(
              {"checkpoint", pid, tid, step, ckpt - step});
        }
      }
    }
  }
  for (size_t index : open_) {
    const Request& req = requests_[index];
    result_.spans.push_back(
        {"request", 1, static_cast<int>(ConnectionOf(req.tenant,
                                                     kIngestConnections)),
         req.intended, req.acked - req.intended});
  }

  // What a user sees (setup_s is added by Run); BENCHMARK.json gates the
  // ones that repeat on a shared host (README.md, "Reading the bounds").
  // Each median is the median of the rounds' medians, which a host stall
  // over fewer than half of the rounds barely moves.
  m.Add("ack_p50_ms", MedianOfPartMedians(ack_parts), "ms", ack_ms.size(),
        Kind::kEndToEnd);
  m.AddTail("ack", ack_ms, Kind::kEndToEnd);
  m.Add("fresh_p50_ms", MedianOfPartMedians(fresh_parts), "ms",
        fresh_ms_.size(), Kind::kEndToEnd);
  m.AddTail("fresh", fresh_ms_, Kind::kEndToEnd);
  if (w().reads) {
    m.Add("read_p50_ms", MedianOfPartMedians(read_parts), "ms",
          read_ms.size(), Kind::kEndToEnd);
    m.AddTail("read", read_ms, Kind::kEndToEnd);
  }
  m.Add("capacity_docs_per_s",
        static_cast<double>(drained.docs) / std::max(drained.seconds, 1e-9),
        "docs/s", drained.drains, Kind::kEndToEnd);
  m.Add("rss_mb", rss_mb, "MB", 1, Kind::kEndToEnd);
  double offered_docs = 0.0;
  for (double docs : shard_docs) offered_docs += docs;
  double open_seconds = 0.0;
  for (double seconds : open_seconds_) open_seconds += seconds;
  open_seconds = std::max(open_seconds, 1e-9);
  // The open loops' rate against capacity: D's calibration (README.md).
  m.Add("gen.offered_docs_per_s", offered_docs / open_seconds, "docs/s",
        open_.size(), Kind::kInfo);

  // Per layer, from the service's own stamps.
  double busy_max = 0.0;
  for (double busy : shard_busy) {
    busy_max = std::max(busy_max, busy / open_seconds);
  }
  double docs_max = 0.0, docs_sum = 0.0;
  for (double docs : shard_docs) {
    docs_max = std::max(docs_max, docs);
    docs_sum += docs;
  }
  const double docs_mean = docs_sum / static_cast<double>(shard_docs.size());
  m.Add("serve.front_p50_ms", Quantile(layers_.front, 0.5), "ms",
        layers_.front.size(), Kind::kLayer);
  m.Add("serve.front_p95_ms", Quantile(layers_.front, 0.95), "ms",
        layers_.front.size(), Kind::kLayer);
  m.Add("serve.connections_shed",
        static_cast<double>(
            server->registry().GetCounter("serve.connections_shed")->Value()),
        "count", 1, Kind::kLayer);
  m.Add("shard.admit_p50_ms", Quantile(layers_.admit, 0.5), "ms",
        layers_.admit.size(), Kind::kLayer);
  m.Add("shard.refused", static_cast<double>(refused), "count",
        open_.size(), Kind::kLayer);
  m.AddLatency("shard.queue_wait", layers_.queue, Kind::kLayer);
  m.Add("shard.queue_depth_max", static_cast<double>(queue_depth_max_),
        "count", monitor_ticks_, Kind::kLayer);
  m.Add("shard.busy_frac_max", busy_max, "ratio", shard_busy.size(),
        Kind::kLayer);
  m.Add("shard.skew", docs_mean > 0.0 ? docs_max / docs_mean : 0.0, "ratio",
        shard_docs.size(), Kind::kLayer);
  m.AddLatency("shard.apply", layers_.apply, Kind::kLayer);
  m.Add("corpus.prep_p50_ms", Quantile(layers_.prep, 0.5), "ms",
        layers_.prep.size(), Kind::kLayer);
  m.Add("store.wal_p50_ms", Quantile(layers_.wal, 0.5), "ms",
        layers_.wal.size(), Kind::kLayer);
  m.Add("store.checkpoint_p50_ms", Quantile(layers_.checkpoint, 0.5), "ms",
        layers_.checkpoint.size(), Kind::kLayer);
  m.Add("store.checkpoints", static_cast<double>(checkpoints.size()),
        "count", 1, Kind::kInfo);
  uint64_t replayed = 0;
  for (size_t t = 0; t < w().tenants; ++t) {
    if (auto tenant = service.GetTenant(TenantName(t))) {
      replayed += tenant->recovery().replayed_records;
    }
  }
  m.Add("store.recovery_replayed_records", static_cast<double>(replayed),
        "count", w().tenants, Kind::kInfo);
  m.AddLatency("core.step", layers_.step, Kind::kLayer);
  m.Add("gen.late_p95_ms", Quantile(late_ms, 0.95), "ms", late_ms.size(),
        Kind::kLayer);
  m.Add("gen.backlog_growth",
        *std::max_element(backlog_growth_.begin(), backlog_growth_.end()),
        "count", backlog_growth_.size(), Kind::kLayer);
  m.Add("error_frac",
        open_attempts == 0 ? 0.0
                           : static_cast<double>(open_non2xx) /
                                 static_cast<double>(open_attempts),
        "ratio", open_attempts, Kind::kEndToEnd);
}

void WorkloadRun::VerifyDigests() {
  const std::string family = Family(w());
  const std::string key_prefix = family + " " +
                                 std::to_string(ctx_.options.seed) + " " +
                                 std::to_string(ctx_.plan.end_day) + " ";
  static const std::map<std::string, std::string> fixtures = LoadFixtures();
  size_t fixture_hits = 0;
  for (size_t t = 0; t < w().tenants; ++t) {
    auto it = fixtures.find(key_prefix + TenantName(t));
    if (it == fixtures.end()) continue;
    ++fixture_hits;
    if (CrcHex(result_.digests[t]) != it->second) {
      Fail(TenantName(t) + " digest " + CrcHex(result_.digests[t]) +
           " != committed " + it->second);
    }
  }
  // With no committed digests for this seed, a standalone reference of a
  // sample of tenants (every one with --verify).
  std::vector<size_t> subset;
  if (ctx_.options.verify || ctx_.options.smoke) {
    for (size_t t = 0; t < w().tenants; ++t) subset.push_back(t);
  } else if (fixture_hits < w().tenants) {
    const size_t stride = 8;
    for (size_t t = ctx_.options.seed % stride; t < w().tenants;
         t += stride) {
      subset.push_back(t);
    }
  }
  if (subset.empty()) return;
  const std::map<size_t, std::string> reference =
      ReferenceDigests(root_ + "/reference", w(), ctx_.feeds, subset,
                       ctx_.plan.end_day, &result_.failures);
  for (const auto& [t, digest] : reference) {
    if (digest != result_.digests[t]) {
      Fail(TenantName(t) + " diverged from the standalone reference");
    }
    if (ctx_.options.verify) {
      std::printf("digest %s %s\n", (key_prefix + TenantName(t)).c_str(),
                  CrcHex(digest).c_str());
    }
  }
}

void WorkloadRun::TracedReplay(double fresh_p50_ms) {
  // One tenant in four, picked by the seed: per-call medians need no more,
  // and the replay of every paper8 tenant alone would outlast the run.
  constexpr size_t kReplayStride = 4;
  std::vector<size_t> replayed;
  std::vector<ReplayTenant> tenants;
  for (size_t t = ctx_.options.seed % kReplayStride; t < w().tenants;
       t += kReplayStride) {
    replayed.push_back(t);
    ReplayTenant tenant;
    tenant.name = TenantName(t);
    tenant.config = Config();
    tenant.flush_until = ctx_.plan.end_day;
    for (const DayBatch& batch : ctx_.feeds.tenants[t]) {
      if (batch.day >= ctx_.plan.end_day) break;
      for (const std::string& body : batch.bodies) {
        tenant.bodies.push_back(&body);
      }
    }
    tenants.push_back(std::move(tenant));
  }
  std::vector<Span> replay_spans;
  Result<ReplayResult> replay =
      ReplayLayers(root_ + "/replay", tenants, 16, WalSyncMode::kEveryRecord,
                   &replay_spans);
  if (!replay.ok()) {
    Fail("layer replay: " + replay.status().ToString());
    return;
  }
  for (size_t i = 0; i < replayed.size(); ++i) {
    const size_t t = replayed[i];
    if (replay->digests[i] != result_.digests[t]) {
      Fail(TenantName(t) + " replay digest differs from the service's");
    }
  }
  // Replay spans run on their own clock; place them after the service run.
  const double offset =
      result_.spans.empty() || replay_spans.empty()
          ? 0.0
          : result_.spans.back().start_s + 1.0 - replay_spans.front().start_s;
  for (Span& span : replay_spans) {
    span.start_s += offset;
    result_.spans.push_back(std::move(span));
  }

  Metrics& m = result_.metrics;
  const auto p50 = [](const std::vector<double>& v) {
    return Quantile(v, 0.5);
  };
  double iterations = 0.0;
  for (double it : replay->iterations) iterations += it;
  iterations /= std::max<size_t>(1, replay->iterations.size());
  const size_t requests = replay->decode_us_per_doc.size();
  const size_t steps = replay->kmeans_ms.size();
  m.Add("shard.decode_us_per_doc", p50(replay->decode_us_per_doc), "us",
        requests, Kind::kLayer);
  m.Add("corpus.append_us", p50(replay->append_us), "us", requests,
        Kind::kLayer);
  m.Add("corpus.sync_us", p50(replay->sync_us), "us", requests,
        Kind::kLayer);
  m.Add("corpus.batcher_us", p50(replay->batcher_us), "us", requests,
        Kind::kLayer);
  // Reopen times are per tenant, so they compare across workloads.
  const double reopened = static_cast<double>(replayed.size());
  m.Add("corpus.load_s", replay->load_s / reopened, "s", replayed.size(),
        Kind::kLayer);
  m.Add("text.analyze_us_per_doc", p50(replay->analyze_us_per_doc), "us",
        requests, Kind::kLayer);
  m.Add("store.open_s", replay->open_s / reopened, "s", replayed.size(),
        Kind::kLayer);
  m.Add("forgetting.stats_ms", p50(replay->stats_ms), "ms", steps,
        Kind::kLayer);
  m.Add("core.kmeans_ms", p50(replay->kmeans_ms), "ms", steps, Kind::kLayer);
  m.Add("core.seed_ms", p50(replay->seed_ms), "ms", steps, Kind::kLayer);
  m.Add("core.score_ms", p50(replay->score_ms), "ms", steps, Kind::kLayer);
  m.Add("core.maintenance_ms", p50(replay->maintenance_ms), "ms", steps,
        Kind::kLayer);
  m.Add("core.refresh_ms", p50(replay->refresh_ms), "ms", steps,
        Kind::kLayer);
  m.Add("core.iterations", iterations, "count", steps, Kind::kLayer);
  m.Add("core.active_docs", p50(replay->active_docs), "count", steps,
        Kind::kInfo);
  const uint64_t scored = replay->certified + replay->fallbacks;
  m.Add("core.certified_frac",
        scored == 0 ? 1.0
                    : static_cast<double>(replay->certified) /
                          static_cast<double>(scored),
        "ratio", scored, Kind::kLayer);
  m.Add("replay.serial_docs_per_s",
        static_cast<double>(replay->docs) / std::max(replay->seconds, 1e-9),
        "docs/s", replay->docs, Kind::kLayer);

  // The ledger: median per-window contribution of each layer along the
  // blocking path, against the median freshness over the same windows.
  const double front = p50(layers_.front), admit = p50(layers_.admit),
               queue = p50(layers_.queue), apply = p50(layers_.apply);
  const double sum = front + admit + queue + apply;
  const double fresh = p50(fresh_ms_);
  const double residual = fresh > 0.0 ? (fresh - sum) / fresh : 0.0;
  m.Add("ledger.residual_frac", std::fabs(residual), "ratio",
        layers_.apply.size(), Kind::kLayer);
  m.Add("trace.fresh_p50_ms", fresh_p50_ms, "ms", fresh_ms_.size(),
        Kind::kLayer);
  std::printf("ledger %s: median per window, ms (n=%zu windows)\n",
              w().name, layers_.apply.size());
  std::printf("  serve.front        %9.3f  intended send -> ingest stamp\n",
              front);
  std::printf("  shard.admit        %9.3f  ingest -> enqueue\n", admit);
  std::printf("  shard.queue_wait   %9.3f  enqueue -> dequeue\n", queue);
  std::printf("  shard.apply        %9.3f  dequeue -> step of the window\n",
              apply);
  std::printf("    corpus.prep      %9.3f  corpus append+fsync, analysis\n",
              p50(layers_.prep));
  std::printf("    store.wal        %9.3f  WAL append+fsync\n",
              p50(layers_.wal));
  std::printf("    core.step        %9.3f  statistics + K-means\n",
              p50(layers_.step));
  std::printf("  sum                %9.3f\n", sum);
  std::printf("  fresh (median)     %9.3f  residual %+.1f%%\n", fresh,
              residual * 100.0);
  std::printf("  (off the path: store.checkpoint p50 %.3f ms over %zu; "
              "replay %zu docs at %.0f docs/s serial)\n",
              p50(layers_.checkpoint), layers_.checkpoint.size(),
              replay->docs,
              static_cast<double>(replay->docs) /
                  std::max(replay->seconds, 1e-9));
}

// ---------------------------------------------------------------------------
// Reporting.

struct WorkloadReport {
  const Workload* workload = nullptr;
  Plan plan;
  std::vector<RunResult> runs;
  bool correct = true;
};

// Metrics of all repetitions, by name in first-seen order.
std::vector<std::pair<Metric, Spread>> Aggregate(
    const std::vector<RunResult>& runs) {
  std::vector<std::pair<Metric, Spread>> out;
  std::map<std::string, std::vector<double>> values;
  for (const RunResult& run : runs) {
    for (const Metric& metric : run.metrics.all()) {
      if (values.count(metric.name) == 0) out.push_back({metric, Spread()});
      values[metric.name].push_back(metric.value);
    }
  }
  for (auto& [metric, spread] : out) {
    spread = SpreadOf(values[metric.name]);
    metric.value = spread.median;
  }
  return out;
}

void PrintReport(const WorkloadReport& report, int reps) {
  for (const auto& [metric, spread] : Aggregate(report.runs)) {
    std::printf("%s %s %.6g %s n=%zu", report.workload->name,
                metric.name.c_str(), metric.value, metric.unit.c_str(),
                metric.n);
    if (metric.unit == "ms" && metric.name.find("_p") != std::string::npos) {
      // Mark a tail the sample cannot support (fewer than ten beyond).
      const size_t at = metric.name.rfind("_p");
      const double q =
          std::atof(metric.name.c_str() + at + 2) / 100.0;
      if (q > 0.5 && SamplesBeyond(metric.n, q) < 10) {
        std::printf(" (unsupported)");
      }
    }
    if (reps > 1) {
      std::printf(" median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g",
                  spread.median, spread.q1, spread.q3, spread.min,
                  spread.max);
    }
    std::printf("\n");
  }
  for (const RunResult& run : report.runs) {
    for (const std::string& failure : run.failures) {
      std::printf("%s CHECK FAILED: %s\n", report.workload->name,
                  failure.c_str());
    }
  }
  std::printf("%s correct=%s\n", report.workload->name,
              report.correct ? "true" : "false");
  std::fflush(stdout);
}

std::string ReportJson(const std::vector<WorkloadReport>& reports,
                       const Fingerprint& fingerprint, const Options& options) {
  std::string workloads = "{";
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& report = reports[i];
    uint64_t attempted = 0, failed = 0;
    std::string failures = "[";
    for (const RunResult& run : report.runs) {
      attempted += run.attempted;
      failed += run.failed;
      for (const std::string& failure : run.failures) {
        if (failures.size() > 1) failures += ",";
        failures += "\"" + obs::JsonEscape(failure) + "\"";
      }
    }
    failures += "]";
    failed += report.correct ? 0 : 1;
    std::string metrics = "{";
    for (const auto& [metric, spread] : Aggregate(report.runs)) {
      obs::JsonObjectBuilder row;
      row.Add("value", metric.value);
      row.Add("unit", metric.unit);
      row.Add("n", static_cast<uint64_t>(metric.n));
      row.Add("kind", KindName(metric.kind));
      row.Add("median", spread.median);
      row.Add("q1", spread.q1);
      row.Add("q3", spread.q3);
      row.Add("min", spread.min);
      row.Add("max", spread.max);
      if (metrics.size() > 1) metrics += ",";
      metrics += "\"" + obs::JsonEscape(metric.name) + "\":" + row.Render();
    }
    metrics += "}";
    obs::JsonObjectBuilder plan;
    plan.Add("open_begin", report.plan.open_begin);
    plan.Add("rounds", report.plan.rounds);
    plan.Add("open_days", report.plan.open_days);
    plan.Add("drain_days", report.plan.drain_days);
    plan.Add("end_day", report.plan.end_day);
    plan.Add("day_ms", report.workload->day_ms);
    obs::JsonObjectBuilder entry;
    entry.Add("correct", report.correct);
    entry.Add("attempted", attempted);
    entry.Add("failed", failed);
    entry.Add("reps", static_cast<uint64_t>(report.runs.size()));
    entry.AddRaw("plan", plan.Render());
    entry.AddRaw("failures", failures);
    entry.AddRaw("metrics", metrics);
    if (i > 0) workloads += ",";
    workloads += "\"" + std::string(report.workload->name) +
                 "\":" + entry.Render();
  }
  workloads += "}";
  obs::JsonObjectBuilder run;
  run.Add("seed", static_cast<uint64_t>(options.seed));
  run.Add("seconds", options.seconds);
  run.Add("smoke", options.smoke);
  obs::JsonObjectBuilder root;
  root.AddRaw("fingerprint", FingerprintJson(fingerprint));
  root.AddRaw("run", run.Render());
  root.AddRaw("workloads", workloads);
  return root.Render() + "\n";
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<WorkloadReport>& reports) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  double origin = -1.0;
  for (const WorkloadReport& report : reports) {
    for (const RunResult& run : report.runs) {
      for (const Span& span : run.spans) {
        if (origin < 0.0 || span.start_s < origin) origin = span.start_s;
      }
    }
  }
  for (size_t w = 0; w < reports.size(); ++w) {
    for (const RunResult& run : reports[w].runs) {
      for (const Span& span : run.spans) {
        if (!first) out << ",";
        first = false;
        obs::JsonObjectBuilder event;
        event.Add("name", span.name);
        event.Add("cat", reports[w].workload->name);
        event.Add("ph", "X");
        event.Add("pid", static_cast<int>(w) * 10 + span.pid);
        event.Add("tid", span.tid);
        event.Add("ts", (span.start_s - origin) * 1e6);
        event.Add("dur", std::max(0.0, span.dur_s) * 1e6);
        out << event.Render();
      }
    }
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (key == "--reps") {
      options->reps = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--trace") {
      options->trace_file = value;
    } else if (key == "--json") {
      options->json_file = value;
    } else if (key == "--dir") {
      options->dir = value;
    } else if (key == "--verify") {
      options->verify = true;
    } else if (key == "--smoke") {
      options->smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (options->smoke) options->seconds = 1.0;
  if (!(options->seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return false;
  }
  if (options->workload != "all" &&
      FindWorkload(options->workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options->workload.c_str());
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: nidc_bench --workload=<name|all> --seed=N "
                 "[--seconds=S] [--reps=R] [--trace=FILE] [--json=FILE] "
                 "[--dir=DIR] [--verify] [--smoke]\n");
    return 2;
  }
  std::filesystem::create_directories(options.dir);
  // The service runs with ShardServiceOptions' default fsync policy.
  const bool wal_every =
      shard::ShardServiceOptions().wal_sync == WalSyncMode::kEveryRecord;
  const Fingerprint fingerprint =
      ProbeHost(options.dir, wal_every ? "every" : "none");
  std::printf("%s\n", FingerprintLine(fingerprint).c_str());

  std::vector<WorkloadReport> reports;
  // Final digests by family and end day: workloads that share both must
  // agree (restart ends bit-identical to paper8).
  std::map<std::string, std::vector<std::string>> family_digests;
  bool all_correct = true;
  for (const Workload& each : Workloads()) {
    if (options.workload != "all" && options.workload != each.name) continue;
    const Workload* workload = &each;
    WorkloadReport report;
    report.workload = workload;
    report.plan = MakePlan(*workload, options.seconds, options.smoke);
    Feeds feeds;
    for (size_t t = 0; t < workload->tenants; ++t) {
      feeds.tenants.push_back(
          MakeFeed(*workload, options.seed, t, report.plan.end_day));
      size_t docs = 0;
      for (const DayBatch& batch : feeds.tenants.back()) docs += batch.docs;
      feeds.docs_sent.push_back(docs);
    }
    std::printf("%s plan warm=[0,%d) rounds=%d x (open %d + drain %d days) "
                "end=%d day_ms=%g tenants=%zu\n",
                workload->name, report.plan.open_begin, report.plan.rounds,
                report.plan.open_days, report.plan.drain_days,
                report.plan.end_day, workload->day_ms, workload->tenants);
    std::fflush(stdout);
    for (int rep = 0; rep < options.reps; ++rep) {
      Context ctx{options, *workload, report.plan, feeds, rep};
      report.runs.push_back(WorkloadRun(ctx).Run());
      RunResult& run = report.runs.back();
      const std::string key =
          Family(*workload) + " " + std::to_string(report.plan.end_day);
      if (run.failures.empty()) {
        auto [it, inserted] = family_digests.emplace(key, run.digests);
        if (!inserted && it->second != run.digests) {
          run.failures.push_back("final states differ from an earlier "
                                 "workload with the same feeds");
        }
      }
      report.correct &= run.failures.empty();
    }
    all_correct &= report.correct;
    PrintReport(report, options.reps);
    reports.push_back(std::move(report));
  }

  if (!options.json_file.empty()) {
    std::ofstream(options.json_file)
        << ReportJson(reports, fingerprint, options);
  }
  if (!options.trace_file.empty()) {
    WriteChromeTrace(options.trace_file, reports);
    std::printf("trace written to %s\n", options.trace_file.c_str());
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace nidc::e2e

int main(int argc, char** argv) { return nidc::e2e::Main(argc, argv); }
