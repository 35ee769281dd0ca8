#include "nidc/shard/http.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"
#include "nidc/serve/introspection.h"
#include "nidc/shard/ingest.h"

namespace nidc::shard {

namespace {

// Raw value of `key` in a query string ("key=value&..."), or nullopt.
std::optional<std::string> QueryParam(const std::string& query,
                                      const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(pos, end - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = end + 1;
  }
  return std::nullopt;
}

std::optional<double> QueryNumber(const std::string& query,
                                  const std::string& key) {
  const std::optional<std::string> raw = QueryParam(query, key);
  if (!raw.has_value() || raw->empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end != raw->c_str() + raw->size()) return std::nullopt;
  return value;
}

serve::HttpResponse JsonResponse(int status, const std::string& json) {
  serve::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = json + "\n";
  return response;
}

serve::HttpResponse ErrorResponse(const Status& status,
                                  int retry_after_seconds = 1) {
  obs::JsonObjectBuilder builder;
  builder.Add("error", status.ToString());
  serve::HttpResponse response =
      JsonResponse(HttpStatusFor(status), builder.Render());
  if (response.status == 429) {
    // Derived from the owning shard's recent queue drain rate when the
    // caller has one (ShardService::RetryAfterHintSeconds); 1 otherwise.
    response.extra_headers.emplace_back(
        "Retry-After", std::to_string(retry_after_seconds));
  }
  return response;
}

serve::HttpResponse MethodNotAllowed() {
  serve::HttpResponse response;
  response.status = 405;
  response.body = "wrong method for this endpoint\n";
  return response;
}

std::string TenantListJson(ShardService* service,
                           obs::RequestTracer* tracer = nullptr) {
  std::string tenants = "[";
  bool first = true;
  for (const TenantInfo& info : service->Tenants()) {
    obs::JsonObjectBuilder row;
    row.Add("name", info.name);
    row.Add("shard", static_cast<uint64_t>(info.shard));
    row.Add("failed", info.failed);
    row.Add("docs_ingested", info.docs_ingested);
    row.Add("steps_applied", info.steps_applied);
    row.Add("now", info.now);
    if (!first) tenants += ",";
    tenants += row.Render();
    first = false;
  }
  tenants += "]";

  std::string queues = "[";
  for (size_t i = 0; i < service->num_shards(); ++i) {
    if (i > 0) queues += ",";
    queues += std::to_string(service->QueueDepth(i));
  }
  queues += "]";

  obs::JsonObjectBuilder builder;
  builder.Add("num_shards", static_cast<uint64_t>(service->num_shards()));
  builder.AddRaw("queue_depths", queues);
  builder.AddRaw("tenants", tenants);
  // The startup reopen (shard.recovery.seconds / shard.recovery.tenants).
  obs::JsonObjectBuilder recovery;
  recovery.Add("seconds", service->recovery_seconds());
  recovery.Add("tenants", static_cast<uint64_t>(service->recovered_tenants()));
  builder.AddRaw("recovery", recovery.Render());
  if (tracer != nullptr) {
    // The aggregate per-tenant stage waterfall (the /statusz view).
    builder.AddRaw("pipeline", tracer->RenderWaterfallJson());
  }
  return builder.Render();
}

}  // namespace

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kOutOfRange:
      return 429;
    default:
      return 503;  // FailedPrecondition / IOError / Internal
  }
}

void RegisterShardHandlers(serve::HttpServer* server, ShardService* service,
                           const TenantConfig& default_config,
                           obs::RequestTracer* tracer, obs::SloEngine* slo) {
  server->Handle("/ingest", [service, tracer,
                             slo](const serve::HttpRequest& request) {
    if (request.method != "POST") return MethodNotAllowed();
    const std::optional<std::string> tenant =
        QueryParam(request.query, "tenant");
    if (!tenant.has_value() || tenant->empty()) {
      return ErrorResponse(
          Status::InvalidArgument("POST /ingest requires ?tenant="));
    }
    // Every response with a tenant feeds the availability objective;
    // good = not pushed back (429) and not failing (503).
    auto observe = [&](int http_status) {
      if (slo != nullptr) {
        slo->ObserveRequest(*tenant, http_status != 429 && http_status != 503,
                            obs::RequestTracer::NowSeconds());
      }
    };
    Result<std::vector<RawDocument>> docs =
        ParseIngestJsonl(request.body);
    if (!docs.ok()) {
      observe(HttpStatusFor(docs.status()));
      return ErrorResponse(docs.status());
    }
    obs::TraceContext trace;
    if (tracer != nullptr) {
      // Accept the caller's W3C traceparent; mint when absent/malformed.
      trace = obs::TraceContext::FromTraceparent(request.traceparent);
      if (!trace.valid()) trace = tracer->Mint();
      tracer->Begin(trace, *tenant);
      tracer->RecordStage(trace, obs::Stage::kIngest);
    }
    const size_t accepted = docs->size();
    if (Status enqueued =
            service->EnqueueIngest(*tenant, std::move(docs).value(), trace);
        !enqueued.ok()) {
      observe(HttpStatusFor(enqueued));
      return ErrorResponse(
          enqueued,
          service->RetryAfterHintSeconds(service->ShardOf(*tenant)));
    }
    observe(202);
    obs::JsonObjectBuilder builder;
    builder.Add("tenant", *tenant);
    builder.Add("accepted", static_cast<uint64_t>(accepted));
    builder.Add("queued",
                static_cast<uint64_t>(service->TotalQueueDepth()));
    if (trace.valid()) builder.Add("trace", trace.ToHex());
    return JsonResponse(202, builder.Render());
  });

  server->Handle("/tenantz", [service, default_config](
                                 const serve::HttpRequest& request) {
    if (request.method == "GET") {
      return JsonResponse(200, TenantListJson(service));
    }
    const std::string op =
        QueryParam(request.query, "op").value_or("");
    const std::string tenant =
        QueryParam(request.query, "tenant").value_or("");
    Status status = Status::OK();
    if (op == "drain") {
      service->Drain();
    } else if (tenant.empty()) {
      status = Status::InvalidArgument("op=" + op + " requires ?tenant=");
    } else if (op == "create") {
      TenantConfig config = default_config;
      if (auto v = QueryNumber(request.query, "k")) {
        config.k = static_cast<size_t>(*v);
      }
      if (auto v = QueryNumber(request.query, "half_life")) {
        config.params.half_life_days = *v;
      }
      if (auto v = QueryNumber(request.query, "life_span")) {
        config.params.life_span_days = *v;
      }
      if (auto v = QueryNumber(request.query, "step")) config.step_days = *v;
      if (auto v = QueryNumber(request.query, "start")) {
        config.start_time = *v;
      }
      if (auto v = QueryNumber(request.query, "seed")) {
        config.seed = static_cast<uint64_t>(*v);
      }
      status = service->CreateTenant(tenant, config);
    } else if (op == "evict") {
      status = service->EvictTenant(tenant);
    } else if (op == "reopen") {
      status = service->OpenTenant(tenant);
    } else if (op == "checkpoint") {
      status = service->Checkpoint(tenant);
    } else if (op == "flush") {
      const std::optional<double> until =
          QueryNumber(request.query, "until");
      if (!until.has_value()) {
        status = Status::InvalidArgument("op=flush requires ?until=DAY");
      } else {
        status = service->Flush(tenant, *until);
      }
    } else {
      status = Status::InvalidArgument("unknown op \"" + op + "\"");
    }
    if (!status.ok()) return ErrorResponse(status);
    obs::JsonObjectBuilder builder;
    builder.Add("ok", true);
    builder.Add("op", op);
    if (!tenant.empty()) builder.Add("tenant", tenant);
    return JsonResponse(200, builder.Render());
  });

  server->Handle("/digestz", [service](const serve::HttpRequest& request) {
    if (request.method != "GET") return MethodNotAllowed();
    const std::string tenant =
        QueryParam(request.query, "tenant").value_or("");
    if (tenant.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("GET /digestz requires ?tenant="));
    }
    Result<std::string> digest = service->StateDigest(tenant);
    if (!digest.ok()) return ErrorResponse(digest.status());
    serve::HttpResponse response;
    response.body = *digest;
    return response;
  });

  server->Handle("/statusz", [service,
                              tracer](const serve::HttpRequest& request) {
    const std::string tenant =
        QueryParam(request.query, "tenant").value_or("");
    if (tenant.empty()) {
      return JsonResponse(200, TenantListJson(service, tracer));
    }
    std::shared_ptr<Tenant> entry = service->GetTenant(tenant);
    if (entry == nullptr) {
      return ErrorResponse(Status::NotFound("no tenant named " + tenant));
    }
    serve::IntrospectionOptions options;
    options.metrics = &entry->metrics();
    options.board = &entry->board();
    options.health = &entry->health();
    options.events = &entry->events();
    return JsonResponse(200, serve::RenderStatusJson(options));
  });

  server->Handle("/healthz", [service, slo](const serve::HttpRequest&) {
    size_t failed = 0;
    std::string failed_names = "[";
    const std::vector<TenantInfo> tenants = service->Tenants();
    for (const TenantInfo& info : tenants) {
      if (!info.failed) continue;
      if (failed > 0) failed_names += ",";
      failed_names += obs::JsonQuote(info.name);
      ++failed;
    }
    failed_names += "]";
    obs::JsonObjectBuilder builder;
    builder.Add("healthy", failed == 0);
    builder.Add("num_tenants", static_cast<uint64_t>(tenants.size()));
    builder.Add("num_shards",
                static_cast<uint64_t>(service->num_shards()));
    builder.Add("queued_batches",
                static_cast<uint64_t>(service->TotalQueueDepth()));
    builder.AddRaw("failed_tenants", failed_names);
    if (slo != nullptr) {
      // SLO burn is a detail field, not a liveness signal: a burning
      // budget wants paging, not a load balancer pulling the instance.
      std::string burning = "[";
      bool first = true;
      for (const std::string& name :
           slo->BurningTenants(obs::RequestTracer::NowSeconds())) {
        if (!first) burning += ",";
        first = false;
        burning += obs::JsonQuote(name);
      }
      burning += "]";
      builder.Add("slo_burning", !first);
      builder.AddRaw("slo_burning_tenants", burning);
    }
    return JsonResponse(failed == 0 ? 200 : 503, builder.Render());
  });

  server->Handle("/metrics", [service](const serve::HttpRequest& request) {
    const std::string tenant =
        QueryParam(request.query, "tenant").value_or("");
    serve::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    if (tenant.empty()) {
      response.body =
          obs::RenderPrometheus(service->metrics()->Snapshot());
      return response;
    }
    std::shared_ptr<Tenant> entry = service->GetTenant(tenant);
    if (entry == nullptr) {
      return ErrorResponse(Status::NotFound("no tenant named " + tenant));
    }
    response.body = obs::RenderPrometheus(entry->metrics().Snapshot());
    return response;
  });

  server->Handle("/metricsz", [service](const serve::HttpRequest&) {
    return JsonResponse(
        200, obs::RenderMetricsJson(service->metrics()->Snapshot()));
  });

  server->Handle("/tracez", [tracer](const serve::HttpRequest& request) {
    if (request.method != "GET") return MethodNotAllowed();
    if (tracer == nullptr) {
      return ErrorResponse(
          Status::FailedPrecondition("request tracing is disabled"));
    }
    const std::string trace =
        QueryParam(request.query, "trace").value_or("");
    const std::string tenant =
        QueryParam(request.query, "tenant").value_or("");
    size_t n = 20;
    if (const std::optional<double> v = QueryNumber(request.query, "n");
        v.has_value() && *v >= 1.0) {
      n = static_cast<size_t>(*v);
    }
    const std::string json = tracer->RenderTracezJson(trace, tenant, n);
    // The one-trace lookup renders {"error": ...} when the id is unknown
    // or no longer retained.
    const int status =
        !trace.empty() && json.rfind("{\"error\"", 0) == 0 ? 404 : 200;
    return JsonResponse(status, json);
  });

  server->Handle("/slosz", [slo](const serve::HttpRequest& request) {
    if (request.method != "GET") return MethodNotAllowed();
    if (slo == nullptr) {
      return ErrorResponse(
          Status::FailedPrecondition("SLO engine is disabled"));
    }
    return JsonResponse(
        200, slo->RenderJson(obs::RequestTracer::NowSeconds()));
  });
}

}  // namespace nidc::shard
