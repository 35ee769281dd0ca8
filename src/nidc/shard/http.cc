#include "nidc/shard/http.h"

#include <optional>
#include <string>

#include "nidc/obs/exporters.h"
#include "nidc/obs/json_util.h"
#include "nidc/serve/introspection.h"
#include "nidc/shard/ingest.h"
#include "nidc/util/string_util.h"

namespace nidc::shard {

namespace {

using serve::JsonResponse;
using serve::MethodNotAllowed;
using serve::QueryParam;

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

std::string TenantListJson(ShardService* service,
                           obs::RequestTracer* tracer = nullptr) {
  std::vector<std::string> tenants;
  for (const TenantInfo& info : service->Tenants()) {
    obs::JsonObjectBuilder row;
    row.Add("name", info.name);
    row.Add("shard", static_cast<uint64_t>(info.shard));
    row.Add("failed", info.failed);
    row.Add("docs_ingested", info.docs_ingested);
    row.Add("steps_applied", info.steps_applied);
    row.Add("now", info.now);
    tenants.push_back(row.Render());
  }
  std::vector<std::string> queues;
  for (size_t i = 0; i < service->num_shards(); ++i) {
    queues.push_back(std::to_string(service->QueueDepth(i)));
  }

  obs::JsonObjectBuilder builder;
  builder.Add("num_shards", static_cast<uint64_t>(service->num_shards()));
  builder.AddRaw("queue_depths", obs::JsonArray(queues));
  builder.AddRaw("tenants", obs::JsonArray(tenants));
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
    auto number = [&request](std::string_view key) {
      return ParseNumber<double>(QueryParam(request.query, key).value_or(""));
    };
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
      if (auto v = number("k")) config.k = static_cast<size_t>(*v);
      if (auto v = number("half_life")) config.params.half_life_days = *v;
      if (auto v = number("life_span")) config.params.life_span_days = *v;
      if (auto v = number("step")) config.step_days = *v;
      if (auto v = number("start")) config.start_time = *v;
      if (auto v = number("seed")) config.seed = static_cast<uint64_t>(*v);
      status = service->CreateTenant(tenant, config);
    } else if (op == "evict") {
      status = service->EvictTenant(tenant);
    } else if (op == "reopen") {
      status = service->OpenTenant(tenant);
    } else if (op == "checkpoint") {
      status = service->Checkpoint(tenant);
    } else if (op == "flush") {
      const std::optional<double> until = number("until");
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

  server->Handle("/healthz", [service,
                              slo](const serve::HttpRequest& request) {
    if (request.method != "GET") return MethodNotAllowed();
    std::vector<std::string> failed;
    const std::vector<TenantInfo> tenants = service->Tenants();
    for (const TenantInfo& info : tenants) {
      if (info.failed) failed.push_back(obs::JsonQuote(info.name));
    }
    obs::JsonObjectBuilder builder;
    builder.Add("healthy", failed.empty());
    builder.Add("num_tenants", static_cast<uint64_t>(tenants.size()));
    builder.Add("num_shards",
                static_cast<uint64_t>(service->num_shards()));
    builder.Add("queued_batches",
                static_cast<uint64_t>(service->TotalQueueDepth()));
    builder.AddRaw("failed_tenants", obs::JsonArray(failed));
    // SLO burn is a detail field, not a liveness signal: a burning
    // budget wants paging, not a load balancer pulling the instance.
    if (slo != nullptr) serve::AddSloBurning(*slo, &builder);
    return JsonResponse(failed.empty() ? 200 : 503, builder.Render());
  });

  server->Handle("/metricsz", [service](const serve::HttpRequest& request) {
    if (request.method != "GET") return MethodNotAllowed();
    return JsonResponse(
        200, obs::RenderMetricsJson(service->metrics()->Snapshot()));
  });

  // The read endpoints render through serve/introspection. ?tenant=T
  // reads that tenant's registry, status board, health monitor and event
  // log; without a tenant, the service's registry (and the tenant list at
  // /statusz). /tracez and /slosz always read the service-wide tracer and
  // SLO engine, where ?tenant= selects a tenant's traces.
  for (const std::string path :
       {"/metrics", "/statusz", "/eventsz", "/tracez", "/slosz"}) {
    server->Handle(path, [service, tracer, slo,
                          path](const serve::HttpRequest& request) {
      if (request.method != "GET") return MethodNotAllowed();
      const std::string tenant =
          QueryParam(request.query, "tenant").value_or("");
      serve::IntrospectionOptions sources;
      std::shared_ptr<Tenant> entry;  // Keeps the sources alive to render.
      if (path == "/tracez" || path == "/slosz") {
        sources.tracer = tracer;
        sources.slo = slo;
      } else if (!tenant.empty()) {
        entry = service->GetTenant(tenant);
        if (entry == nullptr) {
          return ErrorResponse(Status::NotFound("no tenant named " + tenant));
        }
        sources.metrics = &entry->metrics();
        sources.board = &entry->board();
        sources.health = &entry->health();
        sources.events = &entry->events();
      } else if (path == "/statusz") {
        return JsonResponse(200, TenantListJson(service, tracer));
      } else {
        sources.metrics = service->metrics();
      }
      return serve::ServeReadEndpoint(path, sources, request);
    });
  }
}

}  // namespace nidc::shard
