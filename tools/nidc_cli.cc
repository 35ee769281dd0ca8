// nidc_cli — command-line front end to the library.
//
// Subcommands:
//   generate --out FILE [--scale S] [--seed N]
//       Write the synthetic TDT2-like corpus as a nidc TSV corpus file.
//   cluster --corpus FILE [--beta D] [--gamma D] [--k N] [--from D --to D]
//           [--top-terms N]
//       Non-incrementally cluster a time range of a corpus file and print
//       the clusters.
//   stream --corpus FILE [--beta D] [--gamma D] [--k N] [--step D]
//          [--from D --to D] [--state FILE] [--metrics-out FILE.jsonl]
//          [--metrics-csv FILE.csv] [--metrics-prom FILE]
//          [--checkpoint-dir DIR] [--checkpoint-every N]
//          [--wal-fsync every|none] [--serve PORT] [--events-out FILE]
//       Replay the corpus through the incremental clusterer, printing a
//       digest per step; optionally resume from / save to a state snapshot
//       (a missing --state file starts fresh; one that does not load or
//       restore exits 1 and is left as it is).
//       --metrics-out writes one JSON record per step (G trajectory,
//       iteration/outlier/expiry counts, registry snapshot, and the
//       step's span profile under "phases"); --metrics-csv writes the
//       scalar metrics as a per-step CSV time series; --metrics-prom
//       dumps the final registry in Prometheus text format.
//       --checkpoint-dir enables durable streaming (see docs/durability.md):
//       every step is write-ahead logged, a snapshot generation rotates
//       every --checkpoint-every steps, and a rerun with the same directory
//       recovers the newest valid state and continues where the previous
//       process — even a crashed one — left off. --wal-fsync none trades
//       the tail since the last checkpoint for throughput. When
//       --checkpoint-dir is set it is the authoritative resume source;
//       --state is still honored as a final snapshot destination.
//       --serve starts the embedded introspection server on
//       127.0.0.1:PORT for the duration of the replay (GET /metrics,
//       /healthz, /statusz, /eventsz, /timeseriesz, /profilez,
//       /tracez, /slosz, and with --checkpoint-dir /explainz — see
//       docs/observability.md);
//       --slo-latency-ms sets the latency SLO threshold the per-step
//       request traces are scored against (default 1000);
//       --ship-port starts the replication listener on 127.0.0.1:PORT
//       (requires --checkpoint-dir): every durable WAL record and
//       checkpoint rotation is streamed to connected `follow` processes,
//       and /healthz reports the leader role and follower lag — see
//       docs/replication.md;
//       --events-out writes the retained lifecycle events (the cluster
//       ids each step created and vanished, checkpoints, anomalies) as
//       JSONL when the replay ends; --provenance-out (requires
//       --checkpoint-dir) writes the final step's per-document decisions,
//       re-run from the checkpoint directory, as JSONL; --trace-chrome
//       writes the self-profiler's span ring as Chrome trace-event JSON
//       (load in chrome://tracing or Perfetto). Any of these flags but
//       --provenance-out — like any metrics flag — turns the full
//       telemetry stack on (registry + event log + cluster health
//       monitor + time-series store + continuous profiler).
//   eval --corpus FILE [--beta D] [--gamma D] [--k N] [--from D --to D]
//       Cluster and score against the corpus's topic labels (micro/macro
//       F1, purity, NMI, ARI).
//   follow --corpus FILE --dir DIR --leader-port PORT [--serve PORT]
//          [--beta D] [--gamma D] [--k N] [--wal-fsync every|none]
//          [--checkpoint-every N] [--max-seconds S]
//       Run a replication follower: connect to a `stream --ship-port`
//       leader on 127.0.0.1:PORT, replay the shipped WAL into DIR (the
//       same on-disk format as a leader checkpoint directory), and keep
//       following until promoted or --max-seconds elapses (0 = forever).
//       --serve exposes /healthz (role "follower", replication lag) and
//       POST /promotez, which seals the local WAL and flips DIR into a
//       writable leader checkpoint directory (see docs/replication.md).
//   serve --root DIR [--port N] [--shards N] [--queue-capacity N]
//         [--checkpoint-every N] [--wal-fsync every|none]
//         [--http-workers N] [--max-seconds S]
//         [--slo-latency-ms MS]
//         [--beta D] [--gamma D] [--k N] [--step D] [--start D] [--seed N]
//       Run the multi-tenant sharded ingest service (docs/serving.md):
//       every tenant directory under DIR/tenants/ is recovered on boot,
//       then the HTTP front door accepts POST /ingest?tenant= batches,
//       /tenantz control-plane operations, and the per-tenant
//       introspection endpoints (/statusz, /metrics, /eventsz, /digestz,
//       /healthz).
//       Every ingest batch carries an end-to-end request trace (W3C
//       traceparent accepted, a fresh id minted otherwise) riding
//       enqueue -> dequeue -> window close -> WAL commit -> step ->
//       checkpoint; GET /tracez serves the stage waterfalls and GET
//       /slosz the per-tenant SLO burn-rate evaluation.
//       --slo-latency-ms sets the default latency objective threshold
//       (default 1000) — see docs/observability.md.
//       --shards 0 (the default) uses one shard worker per hardware
//       thread, and each shard steps its tenants on its own thread;
//       --max-seconds 0 serves until SIGINT/SIGTERM. The --beta
//       .. --seed flags set the default TenantConfig that
//       POST /tenantz?op=create starts from.
//   inspect URL
//       Fetch /statusz from a serving nidc_cli (e.g.
//       `nidc_cli inspect http://127.0.0.1:8080`) and pretty-print the
//       pipeline status: step digest, G tail, per-cluster health rows —
//       plus, when the peer serves them, sparklines of the key
//       /timeseriesz series and the top /profilez phases.
//
// All subcommands accept --lenient: skip malformed corpus records (counted
// and reported, and exported as the corpus.bad_records metric) instead of
// failing the load.
//
// All times are fractional days in the corpus's own timeline.

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nidc/core/incremental_clusterer.h"
#include "nidc/core/state_io.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/store/durable_clusterer.h"
#include "nidc/corpus/stream.h"
#include "nidc/eval/clustering_metrics.h"
#include "nidc/eval/f1_measures.h"
#include "nidc/eval/report.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/obs/timeseries.h"
#include "nidc/repl/replica.h"
#include "nidc/repl/shipper.h"
#include "nidc/repl/tcp.h"
#include "nidc/serve/http_server.h"
#include "nidc/serve/introspection.h"
#include "nidc/shard/http.h"
#include "nidc/shard/service.h"
#include "nidc/shard/tenant.h"
#include "nidc/synth/tdt2_like_generator.h"
#include "nidc/util/string_util.h"

namespace nidc {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  const char* Get(const std::string& key, const char* fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second.c_str();
  }
  double GetDouble(const std::string& key, double fallback) const {
    return GetNumber(key, fallback);
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    return GetNumber(key, fallback);
  }
  // --wal-fsync every|none.
  WalSyncMode GetWalSync() const {
    const std::string fsync = Get("wal-fsync", "every");
    if (fsync == "every") return WalSyncMode::kEveryRecord;
    if (fsync == "none") return WalSyncMode::kNone;
    UsageError("--wal-fsync must be every or none");
  }
  bool Has(const std::string& key) const { return flags.contains(key); }

 private:
  // A malformed value exits 2 naming the flag, instead of running with 0
  // or with a prefix of what was meant. Each subcommand reads its flags
  // before it starts a thread.
  template <typename T>
  T GetNumber(const std::string& key, T fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    if (const std::optional<T> value = ParseNumber<T>(it->second)) {
      return *value;
    }
    UsageError("--" + key + " expects a number, got \"" + it->second +
               "\"");
  }
  [[noreturn]] void UsageError(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), message.c_str());
    std::exit(2);
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: nidc_cli <generate|cluster|stream|eval|follow|serve|inspect> "
      "[--flag value]...\n"
      "  generate --out FILE [--scale S] [--seed N]\n"
      "  cluster  --corpus FILE [--beta D] [--gamma D] [--k N]\n"
      "           [--from D --to D] [--top-terms N]\n"
      "  stream   --corpus FILE [--beta D] [--gamma D] [--k N] [--step D]\n"
      "           [--from D --to D] [--state FILE]\n"
      "           [--metrics-out FILE.jsonl] [--metrics-csv FILE.csv]\n"
      "           [--metrics-prom FILE]\n"
      "           [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "           [--wal-fsync every|none]\n"
      "           [--serve PORT] [--ship-port PORT] [--slo-latency-ms MS]\n"
      "           [--events-out FILE.jsonl]\n"
      "           [--provenance-out FILE.jsonl] [--trace-chrome FILE.json]\n"
      "  eval     --corpus FILE [--beta D] [--gamma D] [--k N]\n"
      "           [--from D --to D]\n"
      "  follow   --corpus FILE --dir DIR --leader-port PORT\n"
      "           [--serve PORT] [--beta D] [--gamma D] [--k N]\n"
      "           [--wal-fsync every|none] [--checkpoint-every N]\n"
      "           [--max-seconds S]\n"
      "  serve    --root DIR [--port N] [--shards N] [--queue-capacity N]\n"
      "           [--checkpoint-every N] [--wal-fsync every|none]\n"
      "           [--http-workers N] [--max-seconds S]\n"
      "           [--slo-latency-ms MS]\n"
      "           [--beta D] [--gamma D] [--k N] [--step D] [--start D]\n"
      "           [--seed N]  (defaults for op=create)\n"
      "  inspect  URL (pretty-prints /statusz of a serving stream)\n"
      "all subcommands: [--lenient] skips malformed corpus records\n");
  return 2;
}

Result<Args> Parse(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  // Flags come as `--key value`, `--key=value`, or bare `--key` (boolean,
  // stored with an empty value and queried via Has()).
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      args.positional.push_back(argv[i]);
      continue;
    }
    const std::string flag = argv[i] + 2;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      args.flags[flag.substr(0, eq)] = flag.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "";
    }
  }
  return args;
}

ForgettingParams ParamsFrom(const Args& args) {
  ForgettingParams params;
  params.half_life_days = args.GetDouble("beta", 7.0);
  params.life_span_days = args.GetDouble("gamma", 30.0);
  return params;
}

Result<std::unique_ptr<Corpus>> LoadCorpusArg(
    const Args& args, CorpusReadStats* stats = nullptr) {
  if (!args.Has("corpus")) {
    return Status::InvalidArgument("--corpus FILE is required");
  }
  CorpusReadOptions read_options;
  read_options.strict = !args.Has("lenient");
  CorpusReadStats local;
  if (stats == nullptr) stats = &local;
  auto corpus = LoadCorpus(args.Get("corpus", ""), read_options, stats);
  if (corpus.ok() && stats->bad_records > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed records (first: %s)\n",
                 stats->bad_records, stats->first_error.c_str());
  }
  return corpus;
}

int RunGenerate(const Args& args) {
  if (!args.Has("out")) {
    std::fprintf(stderr, "generate: --out FILE is required\n");
    return 2;
  }
  GeneratorOptions options;
  options.scale = args.GetDouble("scale", 1.0);
  options.seed = args.GetSize("seed", options.seed);
  Tdt2LikeGenerator generator(options);
  auto raw = generator.GenerateRaw();
  if (!raw.ok()) {
    std::fprintf(stderr, "%s\n", raw.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveRawDocuments(args.Get("out", ""), *raw);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu documents to %s\n", raw->size(),
              args.Get("out", ""));
  return 0;
}

void PrintClusters(const Corpus& corpus, const ClusteringResult& result,
                   size_t top_terms) {
  for (size_t p = 0; p < result.clusters.size(); ++p) {
    if (result.clusters[p].empty()) continue;
    std::printf("cluster %2zu | %4zu docs | avg_sim %.3g |", p,
                result.clusters[p].size(), result.avg_sims[p]);
    for (const auto& term :
         result.TopTerms(p, corpus.vocabulary(), top_terms)) {
      std::printf(" %s", term.c_str());
    }
    std::printf("\n");
  }
  std::printf("outliers: %zu | G = %.5g | %d iterations%s\n",
              result.outliers.size(), result.g, result.iterations,
              result.converged ? "" : " (iteration cap hit)");
}

int RunCluster(const Args& args) {
  auto corpus = LoadCorpusArg(args);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const double from = args.GetDouble("from", (*corpus)->MinTime());
  const double to = args.GetDouble("to", (*corpus)->MaxTime() + 1e-6);
  const auto docs = (*corpus)->DocsInRange(from, to);
  if (docs.empty()) {
    std::fprintf(stderr, "no documents in [%g, %g)\n", from, to);
    return 1;
  }
  ExtendedKMeansOptions kmeans;
  kmeans.k = args.GetSize("k", 24);
  BatchClusterer clusterer(corpus->get(), ParamsFrom(args), kmeans);
  auto run = clusterer.Run(docs, to);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("clustered %zu docs in [%g, %g), K=%zu, beta=%g, gamma=%g\n",
              docs.size(), from, to, kmeans.k,
              ParamsFrom(args).half_life_days,
              ParamsFrom(args).life_span_days);
  PrintClusters(**corpus, run->clustering, args.GetSize("top-terms", 5));
  return 0;
}

// One JSONL telemetry record: the step digest, the G trajectory of the
// clustering pass, the full metrics snapshot, and the step's own phase
// profile (the spans recorded since the profiler's SetStep for it).
std::string RenderStepRecord(uint64_t step_index, double tau,
                             const StepResult& step,
                             const obs::MetricsRegistry& registry,
                             const obs::PhaseProfiler& profiler) {
  obs::JsonObjectBuilder record;
  record.Add("step", step_index)
      .Add("tau", tau)
      .Add("num_new", static_cast<uint64_t>(step.num_new))
      .Add("num_expired", static_cast<uint64_t>(step.expired.size()))
      .Add("num_active", static_cast<uint64_t>(step.num_active))
      .Add("num_outliers", static_cast<uint64_t>(step.num_outliers))
      .Add("iterations", step.iterations)
      .Add("converged", step.clustering.converged)
      .Add("final_g", step.final_g)
      .Add("stats_seconds", step.stats_update_seconds)
      .Add("clustering_seconds", step.clustering_seconds);
  std::vector<std::string> g_history;
  for (double g : step.clustering.g_history) {
    g_history.push_back(obs::JsonNumber(g));
  }
  record.AddRaw("g_history", obs::JsonArray(g_history));
  record.AddRaw("metrics", obs::RenderMetricsJson(registry.Snapshot()));
  record.AddRaw("phases", obs::RenderPhaseArray(profiler.CurrentStep()));
  return record.Render();
}

// The request tracer and the latency SLO engine its completed traces
// feed (--slo-latency-ms), as `stream` and `serve` both wire them. The
// engine is declared first, so it outlives the tracer's callback.
struct RequestTelemetry {
  std::unique_ptr<obs::SloEngine> slo;
  std::unique_ptr<obs::RequestTracer> tracer;
};

RequestTelemetry MakeRequestTelemetry(const Args& args,
                                      obs::MetricsRegistry* registry,
                                      obs::EventLog* events) {
  obs::SloEngine::Options slo_options;
  slo_options.default_objective.latency_threshold_seconds =
      args.GetDouble("slo-latency-ms", 1000.0) / 1000.0;
  slo_options.metrics = registry;
  slo_options.events = events;
  RequestTelemetry telemetry;
  telemetry.slo = std::make_unique<obs::SloEngine>(slo_options);
  obs::RequestTracer::Options trace_options;
  trace_options.metrics = registry;
  trace_options.on_complete = [engine = telemetry.slo.get()](
                                  const std::string& tenant,
                                  double e2e_seconds, double now_seconds) {
    engine->ObserveLatency(tenant, e2e_seconds, now_seconds);
  };
  telemetry.tracer = std::make_unique<obs::RequestTracer>(trace_options);
  return telemetry;
}

int RunStream(const Args& args) {
  CorpusReadStats corpus_stats;
  auto corpus = LoadCorpusArg(args, &corpus_stats);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  IncrementalOptions options;
  options.kmeans.k = args.GetSize("k", 24);
  const ForgettingParams params = ParamsFrom(args);
  const size_t checkpoint_every = args.GetSize("checkpoint-every", 16);
  const WalSyncMode wal_sync = args.GetWalSync();
  const auto serve_port = static_cast<uint16_t>(args.GetSize("serve", 0));
  const auto ship_port = static_cast<uint16_t>(args.GetSize("ship-port", 0));
  double resume_from = args.GetDouble("from", (*corpus)->MinTime());
  const double to = args.GetDouble("to", (*corpus)->MaxTime() + 1e-6);
  const double step = args.GetDouble("step", 1.0);

  // Telemetry: one registry for the whole replay; exporters are optional.
  obs::MetricsRegistry registry;
  const std::string metrics_out = args.Get("metrics-out", "");
  const std::string metrics_csv = args.Get("metrics-csv", "");
  const std::string metrics_prom = args.Get("metrics-prom", "");
  const std::string events_out = args.Get("events-out", "");
  const std::string provenance_out = args.Get("provenance-out", "");
  const std::string trace_chrome = args.Get("trace-chrome", "");
  const bool serving = args.Has("serve");
  const bool telemetry = !metrics_out.empty() || !metrics_csv.empty() ||
                         !metrics_prom.empty() || !events_out.empty() ||
                         !trace_chrome.empty() || serving;
  std::unique_ptr<obs::EventLog> events;
  std::unique_ptr<obs::ClusterHealthMonitor> health;
  std::unique_ptr<obs::TimeSeriesStore> timeseries;
  std::unique_ptr<obs::PhaseProfiler> profiler;
  RequestTelemetry requests;
  if (telemetry) {
    options.metrics = &registry;
    registry.GetCounter("corpus.bad_records")
        ->Increment(corpus_stats.bad_records);
    // The full stack rides along with any telemetry flag: the event log
    // backs /eventsz and --events-out, the health monitor publishes the
    // health.* families the metrics exports carry, the time-series store
    // backs /timeseriesz, and the profiler /profilez and --trace-chrome.
    events = std::make_unique<obs::EventLog>(/*capacity=*/4096, &registry);
    obs::ClusterHealthOptions health_options;
    health_options.metrics = &registry;
    health = std::make_unique<obs::ClusterHealthMonitor>(health_options);
    obs::TimeSeriesStore::Options ts_options;
    ts_options.metrics = &registry;
    ts_options.events = events.get();
    timeseries = std::make_unique<obs::TimeSeriesStore>(ts_options);
    obs::PhaseProfiler::Options profiler_options;
    profiler_options.metrics = &registry;
    profiler = std::make_unique<obs::PhaseProfiler>(profiler_options);
    // One request trace per step batch: the stream loop is the front door
    // here, so it mints the trace, the durability/replication layers stamp
    // their stages through the StepScope, and completed traces score the
    // latency SLO — same pipeline.*/slo.* families as the sharded server.
    requests = MakeRequestTelemetry(args, &registry, events.get());
    options.events = events.get();
    options.health = health.get();
  }
  std::unique_ptr<obs::JsonlWriter> jsonl;
  if (!metrics_out.empty()) {
    jsonl = std::make_unique<obs::JsonlWriter>(metrics_out);
  }
  obs::MetricsCsvSeries csv_series;
  // The continuous profiler is the NIDC_SPAN sink, always-on whenever
  // telemetry is (the overhead budget covers it — see
  // bench_sweep_hotpath).
  obs::ScopedProfilerInstall install_profiler(profiler.get());

  const std::string state_path = args.Get("state", "");
  const std::string checkpoint_dir = args.Get("checkpoint-dir", "");
  const bool shipping = args.Has("ship-port");
  for (const char* flag : {"ship-port", "provenance-out"}) {
    if (args.Has(flag) && checkpoint_dir.empty()) {
      std::fprintf(stderr, "stream: --%s requires --checkpoint-dir\n", flag);
      return 2;
    }
  }

  // The introspection server (--serve) reads the board the step loop
  // writes and re-runs steps from the checkpoint directory (/explainz);
  // everything else it serves is the telemetry stack above.
  serve::StatusBoard board;
  std::unique_ptr<serve::HttpServer> server;
  if (serving) {
    server = std::make_unique<serve::HttpServer>(&registry);
    serve::IntrospectionOptions introspection;
    introspection.metrics = &registry;
    introspection.events = events.get();
    introspection.health = health.get();
    introspection.board = &board;
    introspection.timeseries = timeseries.get();
    introspection.profiler = profiler.get();
    if (!checkpoint_dir.empty()) {
      introspection.explain = [checkpoint_dir, loaded = corpus->get(), params,
                               options](uint64_t step) {
        return ExplainStep(Env::Default(), checkpoint_dir, loaded, params,
                           options, step);
      };
    }
    introspection.tracer = requests.tracer.get();
    introspection.slo = requests.slo.get();
    serve::RegisterIntrospectionEndpoints(server.get(), introspection);
    const Status started = server->Start(serve_port);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("serving on http://127.0.0.1:%u "
                "(/metrics /healthz /statusz /eventsz /timeseriesz "
                "/profilez /tracez /slosz%s)\n",
                server->port(), checkpoint_dir.empty() ? "" : " /explainz");
  }

  // Replication (--ship-port) rides on the durability commit stream: the
  // shipper is the DurableClusterer's sink, the listener feeds follower
  // connections into it. Declared before `durable` so the clusterer (and
  // its sink pointer) is destroyed first.
  std::unique_ptr<repl::WalShipper> shipper;
  std::unique_ptr<repl::ReplListener> repl_listener;
  std::unique_ptr<IncrementalClusterer> clusterer;
  std::unique_ptr<DurableClusterer> durable;
  if (!checkpoint_dir.empty()) {
    // Durable mode: the checkpoint directory is the authoritative resume
    // source; every step is WAL-logged and snapshots rotate periodically.
    DurableOptions durable_options;
    durable_options.dir = checkpoint_dir;
    durable_options.checkpoint_every = checkpoint_every;
    durable_options.wal_sync = wal_sync;
    if (telemetry) durable_options.metrics = &registry;
    durable_options.tracer = requests.tracer.get();
    if (shipping) {
      // The shipper must exist before Open: the opening rotation is the
      // OnRotate that caches the base snapshot followers catch up from.
      repl::ShipperOptions ship_options;
      ship_options.dir = checkpoint_dir;
      if (telemetry) ship_options.metrics = &registry;
      ship_options.tracer = requests.tracer.get();
      shipper = std::make_unique<repl::WalShipper>(ship_options);
      durable_options.sink = shipper.get();
    }
    auto opened = DurableClusterer::Open(corpus->get(), params, options,
                                         durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    durable = std::move(opened).value();
    const RecoveryInfo& recovery = durable->recovery();
    if (recovery.resumed) {
      resume_from = recovery.recovered_now;
      std::printf(
          "recovered generation %llu from %s at day %g "
          "(%llu WAL records replayed, %llu of them from logged outcomes, "
          "%llu quarantined, %llu snapshot fallbacks)\n",
          static_cast<unsigned long long>(recovery.source_generation),
          checkpoint_dir.c_str(), recovery.recovered_now,
          static_cast<unsigned long long>(recovery.replayed_records),
          static_cast<unsigned long long>(recovery.installed_records),
          static_cast<unsigned long long>(recovery.quarantined_records),
          static_cast<unsigned long long>(recovery.snapshot_fallbacks));
    } else {
      std::printf("checkpointing to %s (every %zu steps, fsync %s)\n",
                  checkpoint_dir.c_str(), checkpoint_every,
                  args.Get("wal-fsync", "every"));
    }
    if (shipping) {
      repl_listener = std::make_unique<repl::ReplListener>(shipper.get());
      const Status started = repl_listener->Start(ship_port);
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }
      shipper->StartHeartbeats(/*interval_s=*/1.0);
      std::printf("shipping WAL on 127.0.0.1:%u (connect with "
                  "nidc_cli follow --leader-port %u)\n",
                  repl_listener->port(), repl_listener->port());
    }
  } else if (!state_path.empty() && Env::Default()->FileExists(state_path)) {
    // A missing state file starts fresh; one that exists but does not load
    // or restore is left untouched rather than overwritten at exit.
    Result<ClustererState> state = LoadState(state_path);
    auto restored =
        state.ok() ? RestoreClusterer(corpus->get(), options, *state)
                   : Result<std::unique_ptr<IncrementalClusterer>>(
                         state.status());
    if (!restored.ok()) {
      std::fprintf(stderr, "stream: cannot resume from %s: %s\n",
                   state_path.c_str(), restored.status().ToString().c_str());
      return 1;
    }
    clusterer = std::move(restored).value();
    resume_from = state->now;
    std::printf("resumed from %s at day %g (%zu active docs)\n",
                state_path.c_str(), state->now, state->active_docs.size());
  }
  if (clusterer == nullptr && durable == nullptr) {
    clusterer =
        std::make_unique<IncrementalClusterer>(corpus->get(), params, options);
  }
  auto do_step = [&](const std::vector<DocId>& docs, double tau) {
    return durable != nullptr ? durable->Step(docs, tau)
                              : clusterer->Step(docs, tau);
  };

  DocumentStream stream(corpus->get(), resume_from, to, step);
  uint64_t step_index = 0;
  while (auto batch = stream.Next()) {
    if (profiler != nullptr) profiler->SetStep(step_index);
    // One request trace per step batch: the stream loop is both the front
    // door (ingest) and the batcher (window close); the layers below stamp
    // wal_commit/ship/step/checkpoint through the StepScope.
    obs::TraceContext req_trace;
    if (requests.tracer != nullptr && !batch->docs.empty()) {
      req_trace = requests.tracer->Mint();
      requests.tracer->Begin(req_trace, "stream");
      requests.tracer->RecordStage(req_trace, obs::Stage::kIngest);
      requests.tracer->RecordStage(req_trace, obs::Stage::kWindowClose);
    }
    obs::RequestTracer::StepScope req_scope(
        req_trace.valid() ? requests.tracer.get() : nullptr,
        req_trace.valid() ? std::vector<obs::TraceContext>{req_trace}
                          : std::vector<obs::TraceContext>{});
    auto result = do_step(batch->docs, batch->end);
    // The non-durable clusterer has no WAL layer to stamp the completion,
    // so the loop stamps it — the e2e histogram and the SLO latency feed
    // fire either way.
    if (req_trace.valid() && durable == nullptr && result.ok()) {
      requests.tracer->RecordStage(req_trace, obs::Stage::kStep);
    }
    if (requests.slo != nullptr) {
      requests.slo->Evaluate(obs::RequestTracer::NowSeconds());
    }
    // Fold the step's registry deltas into the time-series store before
    // anything renders a snapshot, so the JSONL record and the server both
    // see this step's windows.
    if (timeseries != nullptr) timeseries->ObserveStep(step_index);
    if (!result.ok()) {
      std::printf("day %7.2f | +%3zu docs | (%s)\n", batch->end,
                  batch->docs.size(), result.status().ToString().c_str());
      continue;
    }
    std::printf("day %7.2f | +%3zu docs | %4zu active | %2zu expired | "
                "%2zu clusters | %3zu outliers | %2d iters | G %.4g\n",
                batch->end, result->num_new, result->num_active,
                result->expired.size(), result->clustering.NumNonEmpty(),
                result->num_outliers, result->iterations, result->final_g);
    if (server != nullptr) {
      // A durable run publishes the store's step index, which /explainz
      // takes as its default step.
      shard::PublishStepStatus(
          durable != nullptr ? durable->applied_steps() - 1 : step_index,
          *result, durable.get(), &board);
      if (shipper != nullptr) {
        const repl::ShipperStats ship = shipper->stats();
        serve::ReplicationStatus repl_status;
        repl_status.enabled = true;
        repl_status.role = "leader";
        repl_status.generation = durable->generation();
        repl_status.replication_lag_records = ship.max_follower_lag_records;
        repl_status.last_ship_age_seconds = ship.last_ship_age_seconds;
        repl_status.followers = ship.followers;
        board.RecordReplication(repl_status);
      }
    }
    if (jsonl != nullptr) {
      const Status appended = jsonl->Append(
          RenderStepRecord(step_index, batch->end, *result, registry,
                           *profiler));
      if (!appended.ok()) {
        std::fprintf(stderr, "%s\n", appended.ToString().c_str());
        return 1;
      }
    }
    if (!metrics_csv.empty()) {
      csv_series.AddStep(step_index, registry.Snapshot());
    }
    ++step_index;
  }
  if (!provenance_out.empty() && durable->applied_steps() > 0) {
    // Before the closing rotation, which may prune the generation that
    // holds the final step, and after a flush: under --wal-fsync none the
    // WAL's tail is still buffered.
    const uint64_t final_step = durable->applied_steps() - 1;
    const Status flushed = durable->Flush();
    Result<std::vector<DecisionRecord>> decisions =
        flushed.ok() ? ExplainStep(Env::Default(), checkpoint_dir,
                                   corpus->get(), params, options, final_step)
                     : Result<std::vector<DecisionRecord>>(flushed);
    obs::JsonlWriter writer(provenance_out);
    Status written = decisions.status();
    for (size_t i = 0; written.ok() && i < decisions->size(); ++i) {
      written = writer.Append(
          serve::RenderDecisionJson(final_step, (*decisions)[i]));
    }
    if (written.ok()) written = writer.Close();
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("provenance: %zu decisions of step %llu -> %s\n",
                decisions->size(),
                static_cast<unsigned long long>(final_step),
                provenance_out.c_str());
  }
  if (durable != nullptr) {
    // Final checkpoint rotation; the stream is fully durable after this.
    // The closing rotation also seals in-sync followers at the final step
    // before the listener goes away.
    if (const Status closed = durable->Close(); !closed.ok()) {
      std::fprintf(stderr, "%s\n", closed.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint: %llu steps durable in %s\n",
                static_cast<unsigned long long>(durable->applied_steps()),
                checkpoint_dir.c_str());
  }
  if (repl_listener != nullptr) {
    const repl::ShipperStats ship = shipper->stats();
    repl_listener->Stop();
    std::printf(
        "replication: %llu records + %llu snapshots + %llu seals shipped "
        "over %llu connections (%llu send errors)\n",
        static_cast<unsigned long long>(ship.records_shipped),
        static_cast<unsigned long long>(ship.snapshots_shipped),
        static_cast<unsigned long long>(ship.seals_shipped),
        static_cast<unsigned long long>(repl_listener->connections_accepted()),
        static_cast<unsigned long long>(ship.ship_errors));
  }
  if (jsonl != nullptr) {
    if (const Status closed = jsonl->Close(); !closed.ok()) {
      std::fprintf(stderr, "%s\n", closed.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %zu records -> %s\n", jsonl->lines_written(),
                jsonl->path().c_str());
  }
  if (!metrics_csv.empty()) {
    if (const Status s = csv_series.WriteFile(metrics_csv); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics: %zu csv rows -> %s\n", csv_series.num_steps(),
                metrics_csv.c_str());
  }
  if (!metrics_prom.empty()) {
    const std::string dump = obs::RenderPrometheus(registry.Snapshot());
    if (const Status s = AtomicWriteFile(Env::Default(), metrics_prom, dump);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics: prometheus dump -> %s\n", metrics_prom.c_str());
  }
  if (!events_out.empty()) {
    if (const Status s = events->ExportJsonl(events_out); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("events: %zu retained (%llu emitted) -> %s\n",
                events->size(),
                static_cast<unsigned long long>(events->total_emitted()),
                events_out.c_str());
  }
  if (!trace_chrome.empty()) {
    if (const Status s = AtomicWriteFile(Env::Default(), trace_chrome,
                                         profiler->RenderChromeTrace());
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("profile: %llu spans -> %s\n",
                static_cast<unsigned long long>(profiler->spans_recorded()),
                trace_chrome.c_str());
  }
  if (server != nullptr) {
    const uint64_t served = server->requests_served();
    server->Stop();
    std::printf("served %llu introspection requests\n",
                static_cast<unsigned long long>(served));
  }
  if (!state_path.empty()) {
    const IncrementalClusterer& final_clusterer =
        durable != nullptr ? durable->clusterer() : *clusterer;
    const Status saved = SaveState(CaptureState(final_clusterer), state_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("state saved to %s\n", state_path.c_str());
  }
  return 0;
}

// Runs a replication follower until promoted (POST /promotez) or
// --max-seconds elapses. The replica directory uses the leader's on-disk
// checkpoint format throughout, so promotion is just a mode flip.
int RunFollow(const Args& args) {
  auto corpus = LoadCorpusArg(args);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const std::string dir = args.Get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "follow: --dir DIR is required\n");
    return 2;
  }
  if (!args.Has("leader-port")) {
    std::fprintf(stderr, "follow: --leader-port PORT is required\n");
    return 2;
  }
  const WalSyncMode wal_sync = args.GetWalSync();
  const auto leader_port =
      static_cast<uint16_t>(args.GetSize("leader-port", 0));
  const auto serve_port = static_cast<uint16_t>(args.GetSize("serve", 0));
  const size_t checkpoint_every = args.GetSize("checkpoint-every", 16);
  const double max_seconds = args.GetDouble("max-seconds", 0.0);

  obs::MetricsRegistry registry;
  IncrementalOptions options;
  options.kmeans.k = args.GetSize("k", 24);
  options.metrics = &registry;

  // The follower's tracer stamps the apply stage for traces shipped by an
  // in-process leader (tests/benches); a cross-process leader's traces
  // have no shipment registration here and the stamp is a no-op — the
  // pipeline.* families are still exported for /metrics parity.
  obs::RequestTracer::Options trace_options;
  trace_options.metrics = &registry;
  obs::RequestTracer reqtracer(trace_options);

  repl::ReplicaOptions replica_options;
  replica_options.dir = dir;
  replica_options.wal_sync = wal_sync;
  replica_options.metrics = &registry;
  replica_options.tracer = &reqtracer;
  auto replica = repl::ReplicaClusterer::Open(corpus->get(), ParamsFrom(args),
                                              options, replica_options);
  if (!replica.ok()) {
    std::fprintf(stderr, "%s\n", replica.status().ToString().c_str());
    return 1;
  }
  {
    const repl::ReplicaStats stats = (*replica)->stats();
    std::printf("replica %s at generation %llu, %llu steps applied\n",
                dir.c_str(),
                static_cast<unsigned long long>(stats.generation),
                static_cast<unsigned long long>(stats.applied_steps));
  }

  repl::TcpReplClientOptions client_options;
  client_options.port = leader_port;
  repl::TcpReplClient client(replica->get(), client_options);
  if (const Status started = client.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("following 127.0.0.1:%u\n", client_options.port);

  serve::StatusBoard board;
  std::unique_ptr<serve::HttpServer> server;
  std::atomic<bool> promote_requested{false};
  if (args.Has("serve")) {
    server = std::make_unique<serve::HttpServer>(&registry);
    serve::IntrospectionOptions introspection;
    introspection.metrics = &registry;
    introspection.board = &board;
    introspection.tracer = &reqtracer;
    serve::RegisterIntrospectionEndpoints(server.get(), introspection);
    server->Handle("/promotez",
                   [&promote_requested](const serve::HttpRequest& request) {
                     if (request.method != "POST") {
                       return serve::MethodNotAllowed();
                     }
                     serve::HttpResponse response;
                     if (promote_requested.exchange(true)) {
                       response.status = 409;
                       response.body = "promotion already requested\n";
                     } else {
                       response.body = "promotion initiated\n";
                     }
                     return response;
                   });
    const Status started = server->Start(serve_port);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("serving on http://127.0.0.1:%u "
                "(/metrics /healthz /statusz, POST /promotez)\n",
                server->port());
  }

  // Poll the replica watermark: print progress, keep /healthz fresh, and
  // watch for the promotion flag or the deadline.
  const auto started_at = std::chrono::steady_clock::now();
  uint64_t printed_steps = ~uint64_t{0};
  while (!promote_requested.load(std::memory_order_acquire)) {
    if (const Status fatal = client.fatal_status(); !fatal.ok()) {
      std::fprintf(stderr, "follower stopped: %s\n",
                   fatal.ToString().c_str());
      return 1;
    }
    const repl::ReplicaStats stats = (*replica)->stats();
    if (stats.applied_steps != printed_steps) {
      printed_steps = stats.applied_steps;
      std::printf("replica | gen %4llu | %6llu steps | lag %4llu | "
                  "+%llu applied, %llu skipped\n",
                  static_cast<unsigned long long>(stats.generation),
                  static_cast<unsigned long long>(stats.applied_steps),
                  static_cast<unsigned long long>(stats.lag_records),
                  static_cast<unsigned long long>(stats.records_applied),
                  static_cast<unsigned long long>(stats.records_skipped));
      if (stats.applied_steps > 0) {
        // /healthz renders step + 1 (StepRecord carries the 0-based
        // index); applied_steps is already a count.
        serve::StatusBoard::StepRecord record;
        record.step = stats.applied_steps - 1;
        board.RecordStep(record);
      }
    }
    serve::ReplicationStatus repl_status;
    repl_status.enabled = true;
    repl_status.role = "follower";
    repl_status.generation = stats.generation;
    repl_status.replication_lag_records = stats.lag_records;
    repl_status.last_ship_age_seconds = stats.last_frame_age_seconds;
    board.RecordReplication(repl_status);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at)
            .count();
    if (max_seconds > 0.0 && elapsed >= max_seconds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Stop the frame pump before touching the replica's fate: nothing may
  // append once the WAL tail is sealed for promotion (or Close).
  client.Stop();
  int exit_code = 0;
  if (promote_requested.load(std::memory_order_acquire)) {
    DurableOptions durable_options;  // dir/env/metrics default to replica's
    durable_options.checkpoint_every = checkpoint_every;
    durable_options.wal_sync = wal_sync;
    auto promoted = (*replica)->Promote(durable_options);
    if (!promoted.ok()) {
      std::fprintf(stderr, "promotion failed: %s\n",
                   promoted.status().ToString().c_str());
      exit_code = 1;
    } else {
      std::printf("promoted: %llu steps writable at generation %llu in %s\n",
                  static_cast<unsigned long long>((*promoted)->applied_steps()),
                  static_cast<unsigned long long>((*promoted)->generation()),
                  dir.c_str());
      if (const Status closed = (*promoted)->Close(); !closed.ok()) {
        std::fprintf(stderr, "%s\n", closed.ToString().c_str());
        exit_code = 1;
      }
    }
  } else {
    const repl::ReplicaStats stats = (*replica)->stats();
    std::printf("follower done: generation %llu, %llu steps applied, "
                "lag %llu\n",
                static_cast<unsigned long long>(stats.generation),
                static_cast<unsigned long long>(stats.applied_steps),
                static_cast<unsigned long long>(stats.lag_records));
    if (const Status closed = (*replica)->Close(); !closed.ok()) {
      std::fprintf(stderr, "%s\n", closed.ToString().c_str());
      exit_code = 1;
    }
  }
  if (server != nullptr) {
    const uint64_t served = server->requests_served();
    server->Stop();
    std::printf("served %llu introspection requests\n",
                static_cast<unsigned long long>(served));
  }
  return exit_code;
}

// SIGINT/SIGTERM flip this; the serve loop polls it. A plain signal
// handler may only touch lock-free atomics, so shutdown itself happens
// back on the main thread.
std::atomic<bool> g_serve_stop{false};
void ServeSignalHandler(int) { g_serve_stop.store(true); }

int RunServe(const Args& args) {
  if (!args.Has("root")) {
    std::fprintf(stderr, "serve: --root DIR is required\n");
    return 2;
  }
  shard::TenantConfig default_config;
  default_config.params = ParamsFrom(args);
  default_config.k = args.GetSize("k", default_config.k);
  default_config.step_days = args.GetDouble("step", default_config.step_days);
  default_config.start_time =
      args.GetDouble("start", default_config.start_time);
  default_config.seed = args.GetSize("seed", default_config.seed);
  if (Status valid = default_config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "serve: %s\n", valid.ToString().c_str());
    return 2;
  }
  serve::HttpServerOptions http_options;
  http_options.num_workers =
      args.GetSize("http-workers", http_options.num_workers);
  const auto port = static_cast<uint16_t>(args.GetSize("port", 0));
  const double max_seconds = args.GetDouble("max-seconds", 0.0);
  obs::MetricsRegistry registry;

  // One tracer + SLO engine for the whole service: every POST /ingest
  // batch is traced end to end (enqueue -> dequeue -> window close ->
  // wal commit -> step -> checkpoint), completed traces feed the latency
  // objective, and the front door feeds availability.
  const RequestTelemetry requests =
      MakeRequestTelemetry(args, &registry, /*events=*/nullptr);

  shard::ShardServiceOptions options;
  options.root = args.Get("root", "");
  options.num_shards = args.GetSize("shards", 0);
  options.queue_capacity =
      args.GetSize("queue-capacity", options.queue_capacity);
  options.checkpoint_every =
      args.GetSize("checkpoint-every", options.checkpoint_every);
  options.wal_sync = args.GetWalSync();
  options.metrics = &registry;
  options.tracer = requests.tracer.get();
  auto service = shard::ShardService::Start(std::move(options));
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }

  serve::HttpServer server(http_options, &registry);
  shard::RegisterShardHandlers(&server, service->get(), default_config,
                               requests.tracer.get(), requests.slo.get());
  if (Status started = server.Start(port); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::printf(
      "serving on 127.0.0.1:%u | root %s | %zu shards | %zu http workers "
      "| %zu tenants recovered in %.3f s\n",
      server.port(), (*service)->root().c_str(), (*service)->num_shards(),
      server.num_workers(),
      (*service)->recovered_tenants(), (*service)->recovery_seconds());
  std::fflush(stdout);

  g_serve_stop.store(false);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  const auto started_at = std::chrono::steady_clock::now();
  uint64_t ticks = 0;
  while (!g_serve_stop.load()) {
    if (max_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started_at;
      if (elapsed.count() >= max_seconds) break;
    }
    // Burn-rate evaluation once a second: /slosz evaluates on read too,
    // but the periodic pass keeps the slo.* gauges (and the slo_burn
    // event edge) fresh even when nobody is polling.
    if (++ticks % 20 == 0) {
      requests.slo->Evaluate(obs::RequestTracer::NowSeconds());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const uint64_t served = server.requests_served();
  server.Stop();
  (*service)->Stop();
  std::printf("served %llu requests; all tenants checkpointed\n",
              static_cast<unsigned long long>(served));
  return 0;
}

int RunEval(const Args& args) {
  auto corpus = LoadCorpusArg(args);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const double from = args.GetDouble("from", (*corpus)->MinTime());
  const double to = args.GetDouble("to", (*corpus)->MaxTime() + 1e-6);
  const auto docs = (*corpus)->DocsInRange(from, to);
  ExtendedKMeansOptions kmeans;
  kmeans.k = args.GetSize("k", 24);
  BatchClusterer clusterer(corpus->get(), ParamsFrom(args), kmeans);
  auto run = clusterer.Run(docs, to);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const auto marked =
      MarkClusters(**corpus, run->clustering.clusters, docs, {});
  const GlobalF1 f1 = ComputeGlobalF1(marked);
  const ClusteringMetrics metrics =
      ComputeClusteringMetrics(**corpus, run->clustering.clusters);
  std::printf("%s", RenderClusterReport(marked).c_str());
  std::printf("micro F1 %.3f | macro F1 %.3f | purity %.3f | NMI %.3f | "
              "ARI %.3f | marked %zu/%zu | outliers %zu\n",
              f1.micro_f1, f1.macro_f1, metrics.purity, metrics.nmi,
              metrics.adjusted_rand, f1.num_marked, f1.num_evaluated,
              run->clustering.outliers.size());
  return 0;
}

// Minimal HTTP/1.1 GET against the introspection server: resolves
// HOST:PORT from an http:// URL, sends one request, returns the body
// (whatever the status — a 503 /healthz body is still informative).
Result<std::string> HttpGet(const std::string& url) {
  std::string rest = url;
  if (rest.rfind("http://", 0) == 0) rest = rest.substr(7);
  std::string path = "/statusz";
  if (const size_t slash = rest.find('/'); slash != std::string::npos) {
    path = rest.substr(slash);
    rest = rest.substr(0, slash);
  }
  std::string host = rest;
  std::string port = "80";
  if (const size_t colon = rest.find(':'); colon != std::string::npos) {
    host = rest.substr(0, colon);
    port = rest.substr(colon + 1);
  }
  if (host.empty() || port.empty()) {
    return Status::InvalidArgument("cannot parse host:port from " + url);
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &resolved) != 0) {
    return Status::IOError("cannot resolve " + host + ":" + port);
  }
  int fd = -1;
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    return Status::IOError("cannot connect to " + host + ":" + port);
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t offset = 0;
  while (offset < request.size()) {
    // MSG_NOSIGNAL: a server that hangs up mid-request must surface as an
    // IOError, not kill the CLI with SIGPIPE.
    const ssize_t n = ::send(fd, request.data() + offset,
                             request.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("write failed: " +
                             std::string(std::strerror(errno)));
    }
    offset += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body_start = response.find("\r\n\r\n");
  if (body_start == std::string::npos) {
    return Status::IOError("malformed HTTP response from " + url);
  }
  return response.substr(body_start + 4);
}

double NumberOr(const obs::JsonValue* value, double fallback) {
  return value != nullptr && value->is_number() ? value->number : fallback;
}

// "http://host:port/anything" -> "http://host:port" (the prefix the extra
// introspection endpoints are appended to).
std::string BaseUrl(std::string url) {
  std::string prefix;
  if (url.rfind("http://", 0) == 0) {
    prefix = "http://";
    url = url.substr(7);
  }
  if (const size_t slash = url.find('/'); slash != std::string::npos) {
    url = url.substr(0, slash);
  }
  return prefix + url;
}

// Renders `values` as a unicode sparkline: each value maps min→max onto
// the eight block heights.
std::string Sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  double lo = values.front();
  double hi = values.front();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    size_t level = 0;
    if (hi > lo) {
      level = static_cast<size_t>((v - lo) / (hi - lo) * 7.0 + 0.5);
      if (level > 7) level = 7;
    }
    out += kBlocks[level];
  }
  return out;
}

// Sparklines of the derived /timeseriesz series plus the top /profilez
// phases. Best-effort: a peer without the endpoints (or without the
// series yet) prints nothing extra.
void PrintTimeSeriesAndProfile(const std::string& base) {
  static const char* kSparkSeries[] = {
      "timeseries.docs_per_sec", "timeseries.moves_per_step",
      "timeseries.durability_lag"};
  for (const char* series : kSparkSeries) {
    Result<std::string> body = HttpGet(base + "/timeseriesz?metric=" +
                                       std::string(series) + "&res=1");
    if (!body.ok()) continue;
    Result<obs::JsonValue> parsed = obs::ParseJson(*body);
    if (!parsed.ok() || !parsed->is_object()) continue;
    const obs::JsonValue* windows = parsed->Find("windows");
    if (windows == nullptr || !windows->is_array() ||
        windows->array.empty()) {
      continue;
    }
    std::vector<double> means;
    const size_t start =
        windows->array.size() > 32 ? windows->array.size() - 32 : 0;
    for (size_t i = start; i < windows->array.size(); ++i) {
      means.push_back(NumberOr(windows->array[i].Find("mean"), 0));
    }
    std::printf("%-30s %s %.4g\n", series, Sparkline(means).c_str(),
                means.back());
  }
  Result<std::string> body = HttpGet(base + "/profilez?format=json");
  if (!body.ok()) return;
  Result<obs::JsonValue> parsed = obs::ParseJson(*body);
  if (!parsed.ok() || !parsed->is_object()) return;
  const obs::JsonValue* totals = parsed->Find("totals");
  if (totals == nullptr || !totals->is_array() || totals->array.empty()) {
    return;
  }
  std::printf("profile (top phases by wall time):\n");
  size_t shown = 0;
  for (const obs::JsonValue& row : totals->array) {
    if (shown++ == 5) break;
    const obs::JsonValue* path = row.Find("path");
    std::printf("  %-46s %9.0f us  cpu %9.0f us  x%.0f\n",
                path != nullptr && path->kind == obs::JsonValue::Kind::kString
                    ? path->string_value.c_str()
                    : "?",
                NumberOr(row.Find("wall_us"), 0),
                NumberOr(row.Find("cpu_us"), 0),
                NumberOr(row.Find("count"), 0));
  }
}

int RunInspect(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "inspect: a URL is required "
                 "(e.g. nidc_cli inspect http://127.0.0.1:8080)\n");
    return 2;
  }
  Result<std::string> body = HttpGet(args.positional.front());
  if (!body.ok()) {
    std::fprintf(stderr, "%s\n", body.status().ToString().c_str());
    return 1;
  }
  Result<obs::JsonValue> parsed = obs::ParseJson(*body);
  if (!parsed.ok() || !parsed->is_object()) {
    std::fprintf(stderr, "response is not a JSON object: %s\n",
                 parsed.ok() ? "(wrong kind)"
                             : parsed.status().ToString().c_str());
    return 1;
  }
  const obs::JsonValue& status = *parsed;
  if (status.Find("started") != nullptr) {
    std::printf("pipeline started, no step completed yet\n");
    return 0;
  }
  std::printf("step %5.0f | %5.0f active | %3.0f clusters | "
              "%4.0f outliers | %2.0f iters | G %.5g\n",
              NumberOr(status.Find("step"), 0),
              NumberOr(status.Find("num_active"), 0),
              NumberOr(status.Find("num_clusters"), 0),
              NumberOr(status.Find("num_outliers"), 0),
              NumberOr(status.Find("iterations"), 0),
              NumberOr(status.Find("g"), 0));
  std::printf("last step %.1fs ago | stats %.3gs | clustering %.3gs\n",
              NumberOr(status.Find("last_step_age_seconds"), 0),
              NumberOr(status.Find("stats_seconds"), 0),
              NumberOr(status.Find("clustering_seconds"), 0));
  if (const obs::JsonValue* tail = status.Find("g_tail");
      tail != nullptr && tail->is_array() && !tail->array.empty()) {
    std::printf("G tail:");
    const size_t start = tail->array.size() > 8 ? tail->array.size() - 8 : 0;
    for (size_t i = start; i < tail->array.size(); ++i) {
      std::printf(" %.5g", tail->array[i].number);
    }
    std::printf("\n");
  }
  if (const obs::JsonValue* durability = status.Find("durability");
      durability != nullptr && durability->is_object() &&
      durability->Find("enabled") != nullptr &&
      durability->Find("enabled")->bool_value) {
    std::printf("durability: generation %.0f | WAL %.0f/%.0f records "
                "since checkpoint\n",
                NumberOr(durability->Find("generation"), 0),
                NumberOr(durability->Find("wal_records_since_checkpoint"),
                         0),
                NumberOr(durability->Find("checkpoint_every"), 0));
  }
  if (const obs::JsonValue* health = status.Find("health");
      health != nullptr && health->is_object()) {
    std::printf("health: drift mean %.4g max %.4g | churn %.4g | "
                "outlier ewma %.4g | dG ewma %.4g\n",
                NumberOr(health->Find("mean_drift"), 0),
                NumberOr(health->Find("max_drift"), 0),
                NumberOr(health->Find("membership_churn"), 0),
                NumberOr(health->Find("outlier_rate_ewma"), 0),
                NumberOr(health->Find("g_delta_ewma"), 0));
  }
  if (const obs::JsonValue* clusters = status.Find("clusters");
      clusters != nullptr && clusters->is_array()) {
    std::printf("%6s %6s %9s %5s %8s\n", "id", "docs", "avg_sim", "age",
                "drift");
    for (const obs::JsonValue& row : clusters->array) {
      std::printf("%6.0f %6.0f %9.3g %5.0f %8.4g\n",
                  NumberOr(row.Find("id"), 0), NumberOr(row.Find("size"), 0),
                  NumberOr(row.Find("avg_sim"), 0),
                  NumberOr(row.Find("age_steps"), 0),
                  NumberOr(row.Find("drift"), 0));
    }
  }
  if (const obs::JsonValue* events = status.Find("events");
      events != nullptr && events->is_object()) {
    std::printf("events: %.0f emitted, %.0f dropped\n",
                NumberOr(events->Find("emitted"), 0),
                NumberOr(events->Find("dropped"), 0));
  }
  // The request-trace stage waterfall (peers with a tracer embed it in
  // /statusz as "pipeline"): per-stage p50/p99 plus the p99 exemplar
  // trace id to pull up at /tracez?trace=.
  if (const obs::JsonValue* pipeline = status.Find("pipeline");
      pipeline != nullptr && pipeline->is_object()) {
    std::printf("pipeline: %.0f traces started, %.0f completed\n",
                NumberOr(pipeline->Find("traces_started"), 0),
                NumberOr(pipeline->Find("traces_completed"), 0));
    if (const obs::JsonValue* waterfall = pipeline->Find("waterfall");
        waterfall != nullptr && waterfall->is_array()) {
      for (const obs::JsonValue& entry : waterfall->array) {
        const obs::JsonValue* tenant = entry.Find("tenant");
        const obs::JsonValue* stages = entry.Find("stages");
        if (stages == nullptr || !stages->is_array() ||
            stages->array.empty()) {
          continue;
        }
        std::printf("  tenant %s:\n",
                    tenant != nullptr &&
                            tenant->kind == obs::JsonValue::Kind::kString
                        ? tenant->string_value.c_str()
                        : "?");
        for (const obs::JsonValue& row : stages->array) {
          const obs::JsonValue* stage = row.Find("stage");
          const obs::JsonValue* exemplar = row.Find("p99_exemplar");
          std::printf(
              "    %-14s x%-7.0f p50 %8.3f ms  p99 %8.3f ms%s%s\n",
              stage != nullptr &&
                      stage->kind == obs::JsonValue::Kind::kString
                  ? stage->string_value.c_str()
                  : "?",
              NumberOr(row.Find("count"), 0),
              NumberOr(row.Find("p50_ms"), 0),
              NumberOr(row.Find("p99_ms"), 0),
              exemplar != nullptr &&
                      exemplar->kind == obs::JsonValue::Kind::kString
                  ? "  trace "
                  : "",
              exemplar != nullptr &&
                      exemplar->kind == obs::JsonValue::Kind::kString
                  ? exemplar->string_value.c_str()
                  : "");
        }
      }
    }
  }
  PrintTimeSeriesAndProfile(BaseUrl(args.positional.front()));
  return 0;
}

int Main(int argc, char** argv) {
  Result<Args> args = Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return Usage();
  }
  if (args->command == "generate") return RunGenerate(*args);
  if (args->command == "cluster") return RunCluster(*args);
  if (args->command == "stream") return RunStream(*args);
  if (args->command == "eval") return RunEval(*args);
  if (args->command == "follow") return RunFollow(*args);
  if (args->command == "serve") return RunServe(*args);
  if (args->command == "inspect") return RunInspect(*args);
  return Usage();
}

}  // namespace
}  // namespace nidc

int main(int argc, char** argv) { return nidc::Main(argc, argv); }
