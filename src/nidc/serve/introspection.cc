#include "nidc/serve/introspection.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "nidc/obs/exporters.h"
#include "nidc/util/string_util.h"

namespace nidc::serve {

namespace {

// Retained G-trajectory length; long enough to see a trend, short enough
// that /statusz stays a glance.
constexpr size_t kGTailCapacity = 64;

// /tracez serves this many recent traces without a valid ?n=, and never
// more than kMaxTraces.
constexpr size_t kDefaultTraces = 20;
constexpr size_t kMaxTraces = 256;

// Default (and maximum) event count served by /eventsz.
constexpr size_t kMaxEvents = 256;

// The "n" query parameter; `fallback` when absent or malformed.
size_t CountParam(const HttpRequest& request, size_t fallback) {
  return ParseNumber<size_t>(QueryParam(request.query, "n").value_or(""))
      .value_or(fallback);
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

}  // namespace

std::string RenderDecisionJson(uint64_t step, const DecisionRecord& record) {
  static constexpr const char* kVerdicts[] = {"assigned", "outlier",
                                              "reseeded"};
  obs::JsonObjectBuilder json;
  json.Add("doc", static_cast<uint64_t>(record.doc))
      .Add("step", step)
      .Add("iteration", static_cast<uint64_t>(record.iteration))
      .Add("verdict", kVerdicts[static_cast<size_t>(record.verdict)])
      .Add("path",
           record.path == ClusterScoring::kSlotted ? "slotted" : "merge");
  if (record.kernel[0] != '\0') json.Add("kernel", record.kernel);
  if (record.cluster != kUnassigned) {
    json.Add("cluster", static_cast<uint64_t>(record.cluster));
  }
  if (record.runner_up != kUnassigned) {
    json.Add("runner_up", static_cast<uint64_t>(record.runner_up));
  }
  json.Add("best_gain", record.best_gain)
      .Add("runner_up_gain", record.runner_up_gain)
      .Add("margin", record.margin);
  return json.Render();
}

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

void AddSloBurning(obs::SloEngine& slo, obs::JsonObjectBuilder* builder) {
  std::vector<std::string> burning;
  for (const std::string& tenant :
       slo.BurningTenants(obs::RequestTracer::NowSeconds())) {
    burning.push_back(obs::JsonQuote(tenant));
  }
  builder->Add("slo_burning", !burning.empty());
  builder->AddRaw("slo_burning_tenants", obs::JsonArray(burning));
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
  // Burning budgets are a paging signal, not a liveness one — detail
  // fields only, never the 503 verdict.
  if (options.slo != nullptr) AddSloBurning(*options.slo, &builder);
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
  return obs::JsonArray(rows);
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
    builder.AddRaw("g_tail", obs::JsonArray(g_values));
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

namespace {

HttpResponse ServeMetrics(const IntrospectionOptions& options,
                          const HttpRequest&) {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = obs::RenderPrometheus(options.metrics->Snapshot());
  return response;
}

HttpResponse ServeHealth(const IntrospectionOptions& options,
                         const HttpRequest&) {
  bool healthy = true;
  std::string body = RenderHealthJson(options, &healthy);
  return JsonResponse(healthy ? 200 : 503, std::move(body));
}

HttpResponse ServeStatus(const IntrospectionOptions& options,
                         const HttpRequest&) {
  return JsonResponse(200, RenderStatusJson(options));
}

HttpResponse ServeEvents(const IntrospectionOptions& options,
                         const HttpRequest& request) {
  const size_t n = std::min(kMaxEvents, CountParam(request, kMaxEvents));
  std::vector<std::string> rendered;
  for (const obs::Event& event : options.events->Recent(n)) {
    rendered.push_back(obs::RenderEventJson(event));
  }
  obs::JsonObjectBuilder builder;
  builder.Add("emitted", options.events->total_emitted());
  builder.Add("dropped", options.events->dropped());
  builder.AddRaw("events", obs::JsonArray(rendered));
  return JsonResponse(200, builder.Render());
}

HttpResponse ServeTimeSeries(const IntrospectionOptions& options,
                             const HttpRequest& request) {
  const obs::TimeSeriesStore& store = *options.timeseries;
  const std::optional<std::string> metric =
      QueryParam(request.query, "metric");
  if (!metric.has_value()) {
    return JsonResponse(200, obs::RenderTimeSeriesListJson(store));
  }
  if (!store.Has(*metric)) {
    return JsonResponse(404, obs::JsonObjectBuilder()
                                 .Add("error", "unknown metric")
                                 .Add("metric", *metric)
                                 .Render());
  }
  const std::optional<std::string> res = QueryParam(request.query, "res");
  const size_t resolution =
      res.has_value() ? ParseNumber<size_t>(*res).value_or(0) : 1;
  const auto& known = obs::TimeSeriesStore::kResolutions;
  if (std::find(known.begin(), known.end(), resolution) == known.end()) {
    return JsonResponse(
        404, obs::JsonObjectBuilder()
                 .Add("error", "unknown resolution (see /timeseriesz)")
                 .Render());
  }
  return JsonResponse(200,
                      obs::RenderTimeSeriesJson(store, *metric, resolution));
}

HttpResponse ServeProfile(const IntrospectionOptions& options,
                          const HttpRequest& request) {
  const std::string format =
      QueryParam(request.query, "format").value_or("json");
  if (format == "collapsed") {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = options.profiler->RenderCollapsed();
    return response;
  }
  if (format == "chrome") {
    return JsonResponse(200, options.profiler->RenderChromeTrace());
  }
  if (format == "json") {
    return JsonResponse(200, options.profiler->RenderJson());
  }
  return JsonResponse(
      404, obs::JsonObjectBuilder()
               .Add("error", "unknown format (collapsed|json|chrome)")
               .Render());
}

// A numeric query parameter: nullopt when absent, InvalidArgument when
// malformed.
Result<std::optional<uint64_t>> IdParam(const HttpRequest& request,
                                        std::string_view key) {
  const std::optional<std::string> value = QueryParam(request.query, key);
  if (!value.has_value()) return std::optional<uint64_t>();
  const std::optional<uint64_t> id = ParseNumber<uint64_t>(*value);
  if (!id.has_value()) {
    return Status::InvalidArgument("malformed " + std::string(key) + " \"" +
                                   *value + "\"");
  }
  return id;
}

HttpResponse ErrorJson(const Status& status) {
  return JsonResponse(
      HttpStatusFor(status),
      obs::JsonObjectBuilder().Add("error", status.ToString()).Render());
}

HttpResponse ServeExplain(const IntrospectionOptions& options,
                          const HttpRequest& request) {
  Result<std::optional<uint64_t>> step = IdParam(request, "step");
  if (!step.ok()) return ErrorJson(step.status());
  Result<std::optional<uint64_t>> doc = IdParam(request, "doc");
  if (!doc.ok()) return ErrorJson(doc.status());
  if (!step->has_value()) {
    if (options.board == nullptr || !options.board->valid()) {
      return ErrorJson(Status::NotFound("no step has run yet"));
    }
    *step = options.board->last_step().step;
  }
  const Result<std::vector<DecisionRecord>> decisions =
      options.explain(**step);
  if (!decisions.ok()) return ErrorJson(decisions.status());
  std::vector<std::string> rendered;
  for (const DecisionRecord& record : *decisions) {
    if (doc->has_value() && record.doc != **doc) continue;
    rendered.push_back(RenderDecisionJson(**step, record));
  }
  if (doc->has_value()) {
    if (rendered.empty()) {
      return ErrorJson(Status::NotFound(
          "doc " + std::to_string(**doc) + " was not clustered at step " +
          std::to_string(**step)));
    }
    return JsonResponse(200, rendered.front());
  }
  obs::JsonObjectBuilder builder;
  builder.Add("step", **step);
  builder.AddRaw("decisions", obs::JsonArray(rendered));
  return JsonResponse(200, builder.Render());
}

HttpResponse ServeTrace(const IntrospectionOptions& options,
                        const HttpRequest& request) {
  const std::string trace = QueryParam(request.query, "trace").value_or("");
  const std::string tenant =
      QueryParam(request.query, "tenant").value_or("");
  const size_t n =
      std::clamp<size_t>(CountParam(request, kDefaultTraces), 1, kMaxTraces);
  const std::string json =
      options.tracer->RenderTracezJson(trace, tenant, n);
  // The one-trace lookup renders {"error": ...} when the id is unknown or
  // no longer retained.
  const int status =
      !trace.empty() && json.rfind("{\"error\"", 0) == 0 ? 404 : 200;
  return JsonResponse(status, json);
}

HttpResponse ServeSlo(const IntrospectionOptions& options,
                      const HttpRequest&) {
  return JsonResponse(
      200, options.slo->RenderJson(obs::RequestTracer::NowSeconds()));
}

// One row per read endpoint: its path, whether `options` carries its
// source, and its renderer.
struct ReadEndpoint {
  const char* path;
  bool (*wired)(const IntrospectionOptions&);
  HttpResponse (*serve)(const IntrospectionOptions&, const HttpRequest&);
};

constexpr ReadEndpoint kReadEndpoints[] = {
    {"/metrics",
     [](const IntrospectionOptions& o) { return o.metrics != nullptr; },
     ServeMetrics},
    {"/healthz", [](const IntrospectionOptions&) { return true; },
     ServeHealth},
    {"/statusz", [](const IntrospectionOptions&) { return true; },
     ServeStatus},
    {"/eventsz",
     [](const IntrospectionOptions& o) { return o.events != nullptr; },
     ServeEvents},
    {"/timeseriesz",
     [](const IntrospectionOptions& o) { return o.timeseries != nullptr; },
     ServeTimeSeries},
    {"/profilez",
     [](const IntrospectionOptions& o) { return o.profiler != nullptr; },
     ServeProfile},
    {"/explainz",
     [](const IntrospectionOptions& o) { return o.explain != nullptr; },
     ServeExplain},
    {"/tracez",
     [](const IntrospectionOptions& o) { return o.tracer != nullptr; },
     ServeTrace},
    {"/slosz", [](const IntrospectionOptions& o) { return o.slo != nullptr; },
     ServeSlo},
};

HttpResponse Serve(const ReadEndpoint& endpoint,
                   const IntrospectionOptions& sources,
                   const HttpRequest& request) {
  if (request.method != "GET") return MethodNotAllowed();
  if (!endpoint.wired(sources)) {
    return JsonResponse(404, obs::JsonObjectBuilder()
                                 .Add("error", "no source for this endpoint")
                                 .Add("path", endpoint.path)
                                 .Render());
  }
  return endpoint.serve(sources, request);
}

}  // namespace

HttpResponse ServeReadEndpoint(const std::string& path,
                               const IntrospectionOptions& sources,
                               const HttpRequest& request) {
  for (const ReadEndpoint& endpoint : kReadEndpoints) {
    if (path == endpoint.path) return Serve(endpoint, sources, request);
  }
  return JsonResponse(
      404, obs::JsonObjectBuilder().Add("error", "no such endpoint").Render());
}

void RegisterIntrospectionEndpoints(HttpServer* server,
                                    const IntrospectionOptions& options) {
  for (const ReadEndpoint& endpoint : kReadEndpoints) {
    if (!endpoint.wired(options)) continue;
    server->Handle(endpoint.path, [&endpoint, options](
                                      const HttpRequest& request) {
      return Serve(endpoint, options, request);
    });
  }
}

}  // namespace nidc::serve
