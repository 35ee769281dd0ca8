#include "nidc/serve/introspection.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>

#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"

namespace nidc::serve {

namespace {

// Retained G-trajectory length; long enough to see a trend, short enough
// that /statusz stays a glance.
constexpr size_t kGTailCapacity = 64;

// Parses the "n" query parameter ("n=32"); returns fallback when absent
// or malformed.
size_t ParseCountParam(const std::string& query, size_t fallback) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(pos, end - pos);
    if (pair.size() > 2 && pair.compare(0, 2, "n=") == 0) {
      char* parse_end = nullptr;
      const unsigned long long n =
          std::strtoull(pair.c_str() + 2, &parse_end, 10);
      if (parse_end != nullptr && *parse_end == '\0') {
        return static_cast<size_t>(n);
      }
      return fallback;
    }
    pos = end + 1;
  }
  return fallback;
}

// Returns the raw value of `key` ("key=value") in the query string, or an
// empty optional when the key is absent. Values are returned verbatim —
// registry metric names never need percent-escapes.
std::optional<std::string> ParseStringParam(const std::string& query,
                                            const std::string& key) {
  const std::string prefix = key + "=";
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(pos, end - pos);
    if (pair.size() >= prefix.size() &&
        pair.compare(0, prefix.size(), prefix) == 0) {
      return pair.substr(prefix.size());
    }
    pos = end + 1;
  }
  return std::nullopt;
}

std::string RenderJsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ",";
    out += elements[i];
  }
  out += "]";
  return out;
}

std::string RenderDurabilityJson(const DurabilityStatus& durability) {
  obs::JsonObjectBuilder builder;
  builder.Add("enabled", durability.enabled);
  builder.Add("generation", durability.generation);
  builder.Add("wal_records_since_checkpoint",
              durability.wal_records_since_checkpoint);
  builder.Add("checkpoint_every", durability.checkpoint_every);
  return builder.Render();
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body) + "\n";
  return response;
}

}  // namespace

StatusBoard::StatusBoard() {
  start_seconds_ = NowSeconds();
  last_step_seconds_ = start_seconds_;
}

double StatusBoard::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void StatusBoard::RecordStep(const StepRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  valid_ = true;
  last_ = record;
  last_step_seconds_ = NowSeconds();
  g_tail_.push_back(record.g);
  while (g_tail_.size() > kGTailCapacity) g_tail_.pop_front();
}

void StatusBoard::RecordDurability(const DurabilityStatus& durability) {
  std::lock_guard<std::mutex> lock(mu_);
  durability_ = durability;
}

void StatusBoard::RecordReplication(const ReplicationStatus& replication) {
  std::lock_guard<std::mutex> lock(mu_);
  replication_ = replication;
}

StatusBoard::StepRecord StatusBoard::last_step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

bool StatusBoard::valid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return valid_;
}

DurabilityStatus StatusBoard::durability() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durability_;
}

ReplicationStatus StatusBoard::replication() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replication_;
}

std::vector<double> StatusBoard::g_tail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<double>(g_tail_.begin(), g_tail_.end());
}

double StatusBoard::seconds_since_last_step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NowSeconds() - last_step_seconds_;
}

double StatusBoard::uptime_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NowSeconds() - start_seconds_;
}

std::string RenderHealthJson(const IntrospectionOptions& options,
                             bool* healthy) {
  obs::JsonObjectBuilder builder;
  bool ok = true;
  if (options.board != nullptr) {
    const bool stepped = options.board->valid();
    const double age = options.board->seconds_since_last_step();
    // Before the first step the clock measures time since startup — a
    // pipeline that never steps goes stale too.
    ok = age <= options.stale_after_seconds;
    builder.Add("status", ok ? "ok" : "stale");
    builder.Add("steps",
                stepped ? options.board->last_step().step + 1 : uint64_t{0});
    builder.Add("last_step_age_seconds", age);
    builder.Add("uptime_seconds", options.board->uptime_seconds());
    const ReplicationStatus replication = options.board->replication();
    builder.Add("role", replication.role);
    builder.Add("replication_lag_records",
                replication.replication_lag_records);
    builder.Add("last_ship_age_s", replication.last_ship_age_seconds);
    if (replication.enabled) {
      builder.Add("replication_generation", replication.generation);
      builder.Add("followers", replication.followers);
    }
    builder.AddRaw("durability",
                   RenderDurabilityJson(options.board->durability()));
  } else {
    builder.Add("status", "ok");
    builder.Add("role", "standalone");
  }
  if (options.slo != nullptr) {
    // Burning budgets are a paging signal, not a liveness one — detail
    // fields only, never the 503 verdict.
    std::string burning = "[";
    bool first = true;
    for (const std::string& tenant :
         options.slo->BurningTenants(obs::RequestTracer::NowSeconds())) {
      if (!first) burning += ",";
      first = false;
      burning += obs::JsonQuote(tenant);
    }
    burning += "]";
    builder.Add("slo_burning", !first);
    builder.AddRaw("slo_burning_tenants", burning);
  }
  if (healthy != nullptr) *healthy = ok;
  return builder.Render();
}

namespace {

std::string RenderHealthSection(const obs::HealthSnapshot& health) {
  obs::JsonObjectBuilder builder;
  builder.Add("has_previous", health.has_previous);
  builder.Add("mean_drift", health.mean_drift);
  builder.Add("max_drift", health.max_drift);
  builder.Add("membership_churn", health.membership_churn);
  builder.Add("docs_tracked", static_cast<uint64_t>(health.docs_tracked));
  builder.Add("docs_moved", static_cast<uint64_t>(health.docs_moved));
  builder.Add("clusters_created", health.clusters_created);
  builder.Add("clusters_vanished", health.clusters_vanished);
  builder.Add("outlier_rate", health.outlier_rate);
  builder.Add("outlier_rate_ewma", health.outlier_rate_ewma);
  builder.Add("g_delta_ewma", health.g_delta_ewma);
  return builder.Render();
}

std::string RenderClusterRows(const obs::HealthSnapshot& health) {
  std::vector<std::string> rows;
  rows.reserve(health.clusters.size());
  for (const obs::ClusterHealthRow& row : health.clusters) {
    obs::JsonObjectBuilder builder;
    builder.Add("id", row.id);
    builder.Add("size", static_cast<uint64_t>(row.size));
    builder.Add("avg_sim", row.avg_sim);
    builder.Add("age_steps", row.age_steps);
    builder.Add("drift", row.drift);
    rows.push_back(builder.Render());
  }
  return RenderJsonArray(rows);
}

// The rep-index build/maintenance scalars, pulled from the registry by
// name prefix (histogram samples are skipped — /metrics has them).
std::string RenderRepIndexSection(obs::MetricsRegistry* metrics) {
  obs::JsonObjectBuilder builder;
  for (const obs::MetricSample& sample : metrics->Snapshot()) {
    if (sample.name.compare(0, 10, "rep_index.") != 0) continue;
    if (sample.kind == obs::MetricSample::Kind::kHistogram) continue;
    builder.Add(sample.name.substr(10), sample.value);
  }
  return builder.Render();
}

}  // namespace

std::string RenderStatusJson(const IntrospectionOptions& options) {
  obs::JsonObjectBuilder builder;
  if (options.board != nullptr && options.board->valid()) {
    const StatusBoard::StepRecord step = options.board->last_step();
    builder.Add("step", step.step);
    builder.Add("num_active", static_cast<uint64_t>(step.num_active));
    builder.Add("num_new", static_cast<uint64_t>(step.num_new));
    builder.Add("num_outliers", static_cast<uint64_t>(step.num_outliers));
    builder.Add("num_clusters", static_cast<uint64_t>(step.num_clusters));
    builder.Add("iterations", step.iterations);
    builder.Add("g", step.g);
    builder.Add("stats_seconds", step.stats_seconds);
    builder.Add("clustering_seconds", step.clustering_seconds);
    builder.Add("last_step_age_seconds",
                options.board->seconds_since_last_step());
    std::vector<std::string> g_values;
    for (double g : options.board->g_tail()) {
      g_values.push_back(obs::JsonNumber(g));
    }
    builder.AddRaw("g_tail", RenderJsonArray(g_values));
    builder.AddRaw("durability",
                   RenderDurabilityJson(options.board->durability()));
  } else {
    builder.Add("step", uint64_t{0});
    builder.Add("started", false);
  }
  if (options.health != nullptr) {
    const obs::HealthSnapshot health = options.health->snapshot();
    if (health.valid) {
      builder.AddRaw("health", RenderHealthSection(health));
      builder.AddRaw("clusters", RenderClusterRows(health));
    }
  }
  if (options.events != nullptr) {
    obs::JsonObjectBuilder events;
    events.Add("emitted", options.events->total_emitted());
    events.Add("dropped", options.events->dropped());
    builder.AddRaw("events", events.Render());
  }
  if (options.metrics != nullptr) {
    builder.AddRaw("rep_index", RenderRepIndexSection(options.metrics));
  }
  if (options.tracer != nullptr) {
    builder.AddRaw("pipeline", options.tracer->RenderWaterfallJson());
  }
  return builder.Render();
}

void RegisterIntrospectionEndpoints(HttpServer* server,
                                    const IntrospectionOptions& options) {
  if (options.metrics != nullptr) {
    obs::MetricsRegistry* metrics = options.metrics;
    server->Handle("/metrics", [metrics](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "text/plain; version=0.0.4";
      response.body = obs::RenderPrometheus(metrics->Snapshot());
      return response;
    });
  }
  server->Handle("/healthz", [options](const HttpRequest&) {
    bool healthy = true;
    std::string body = RenderHealthJson(options, &healthy);
    return JsonResponse(healthy ? 200 : 503, std::move(body));
  });
  server->Handle("/statusz", [options](const HttpRequest&) {
    return JsonResponse(200, RenderStatusJson(options));
  });
  if (options.events != nullptr) {
    const obs::EventLog* events = options.events;
    const size_t max_events = options.max_events;
    server->Handle("/eventsz", [events, max_events](
                                   const HttpRequest& request) {
      const size_t n = std::min(
          max_events, ParseCountParam(request.query, max_events));
      std::vector<std::string> rendered;
      for (const obs::Event& event : events->Recent(n)) {
        rendered.push_back(obs::RenderEventJson(event));
      }
      obs::JsonObjectBuilder builder;
      builder.Add("emitted", events->total_emitted());
      builder.Add("dropped", events->dropped());
      builder.AddRaw("events", RenderJsonArray(rendered));
      return JsonResponse(200, builder.Render());
    });
  }
  if (options.timeseries != nullptr) {
    const obs::TimeSeriesStore* store = options.timeseries;
    server->Handle("/timeseriesz", [store](const HttpRequest& request) {
      const std::optional<std::string> metric =
          ParseStringParam(request.query, "metric");
      if (!metric.has_value()) {
        return JsonResponse(200, obs::RenderTimeSeriesListJson(*store));
      }
      if (!store->Has(*metric)) {
        return JsonResponse(404, obs::JsonObjectBuilder()
                                     .Add("error", "unknown metric")
                                     .Add("metric", *metric)
                                     .Render());
      }
      size_t resolution = 1;
      const std::optional<std::string> res =
          ParseStringParam(request.query, "res");
      if (res.has_value()) {
        char* parse_end = nullptr;
        const unsigned long long parsed =
            std::strtoull(res->c_str(), &parse_end, 10);
        resolution = (parse_end != nullptr && *parse_end == '\0' &&
                      !res->empty())
                         ? static_cast<size_t>(parsed)
                         : 0;
      }
      const std::vector<size_t> known = store->Resolutions();
      if (std::find(known.begin(), known.end(), resolution) == known.end()) {
        return JsonResponse(
            404, obs::JsonObjectBuilder()
                     .Add("error", "unknown resolution (see /timeseriesz)")
                     .Render());
      }
      return JsonResponse(
          200, obs::RenderTimeSeriesJson(*store, *metric, resolution));
    });
  }
  if (options.profiler != nullptr) {
    const obs::PhaseProfiler* profiler = options.profiler;
    server->Handle("/profilez", [profiler](const HttpRequest& request) {
      const std::string format =
          ParseStringParam(request.query, "format").value_or("json");
      if (format == "collapsed") {
        HttpResponse response;
        response.content_type = "text/plain";
        response.body = profiler->RenderCollapsed();
        return response;
      }
      if (format == "chrome") {
        return JsonResponse(200, profiler->RenderChromeTrace());
      }
      if (format == "json") {
        return JsonResponse(200, profiler->RenderJson());
      }
      return JsonResponse(
          404, obs::JsonObjectBuilder()
                   .Add("error", "unknown format (collapsed|json|chrome)")
                   .Render());
    });
  }
  if (options.provenance != nullptr) {
    const obs::ProvenanceLog* provenance = options.provenance;
    const size_t max_records = options.max_provenance_records;
    server->Handle("/explainz", [provenance, max_records](
                                    const HttpRequest& request) {
      const std::optional<std::string> doc_param =
          ParseStringParam(request.query, "doc");
      if (doc_param.has_value()) {
        char* parse_end = nullptr;
        const unsigned long long doc =
            std::strtoull(doc_param->c_str(), &parse_end, 10);
        if (doc_param->empty() || parse_end == nullptr ||
            *parse_end != '\0') {
          return JsonResponse(404, obs::JsonObjectBuilder()
                                       .Add("error", "malformed doc id")
                                       .Render());
        }
        const std::optional<obs::DecisionRecord> record =
            provenance->Lookup(doc);
        if (!record.has_value()) {
          return JsonResponse(
              404, obs::JsonObjectBuilder()
                       .Add("error", "no retained decision for doc")
                       .Add("doc", static_cast<uint64_t>(doc))
                       .Render());
        }
        return JsonResponse(200, obs::RenderDecisionJson(*record));
      }
      const size_t n = std::min(
          max_records, ParseCountParam(request.query, max_records));
      std::vector<std::string> rendered;
      for (const obs::DecisionRecord& record : provenance->Recent(n)) {
        rendered.push_back(obs::RenderDecisionJson(record));
      }
      obs::JsonObjectBuilder builder;
      builder.Add("recorded", provenance->total_recorded());
      builder.Add("dropped", provenance->dropped());
      builder.Add("retained", static_cast<uint64_t>(provenance->size()));
      builder.Add("capacity", static_cast<uint64_t>(provenance->capacity()));
      builder.AddRaw("recent", RenderJsonArray(rendered));
      return JsonResponse(200, builder.Render());
    });
  }
  if (options.tracer != nullptr) {
    obs::RequestTracer* tracer = options.tracer;
    server->Handle("/tracez", [tracer](const HttpRequest& request) {
      const std::string trace =
          ParseStringParam(request.query, "trace").value_or("");
      const std::string tenant =
          ParseStringParam(request.query, "tenant").value_or("");
      const size_t n = std::max<size_t>(
          1, std::min<size_t>(256, ParseCountParam(request.query, 20)));
      const std::string json = tracer->RenderTracezJson(trace, tenant, n);
      const int status =
          !trace.empty() && json.rfind("{\"error\"", 0) == 0 ? 404 : 200;
      return JsonResponse(status, json);
    });
  }
  if (options.slo != nullptr) {
    obs::SloEngine* slo = options.slo;
    server->Handle("/slosz", [slo](const HttpRequest&) {
      return JsonResponse(200,
                          slo->RenderJson(obs::RequestTracer::NowSeconds()));
    });
  }
}

}  // namespace nidc::serve
