// The sharded service's HTTP surface (see docs/serving.md for schemas):
//
//   POST /ingest?tenant=NAME   — body: JSONL documents (ingest.h). 202 on
//       accept (the batch is queued, not yet applied), 400 on a malformed
//       body, 404 unknown tenant, 429 + Retry-After when the owning
//       shard's queue is full, 503 when the tenant's storage failed;
//   GET  /tenantz              — tenant list (name, shard, docs, steps,
//       clock, failed) plus shard/queue summary;
//   POST /tenantz?op=...&tenant=NAME — control plane: op=create (optional
//       k/half_life/life_span/step/start/seed overrides of the server's
//       default TenantConfig; a malformed one answers 400 and creates
//       nothing, and k and seed must be unsigned integers), evict,
//       reopen, checkpoint,
//       flush (&until=DAY), drain (no tenant);
//   GET  /digestz?tenant=NAME  — the serialized clusterer state, rendered
//       on the owning shard (the equivalence-test currency);
//   GET  /healthz              — 200 while every tenant is healthy, 503
//       once any tenant failed; aggregate durability lag;
//   GET  /metricsz             — the server-wide registry as one JSON
//       object (RenderMetricsJson), consumed by
//       `nidc_metrics_check --shard-snapshot`;
//   GET  /statusz              — the aggregate per-tenant/per-shard view.
//
// The read endpoints below are rendered by serve/introspection.h, the same
// code the single-stream server runs. `?tenant=NAME` reads that tenant's
// sources (404 for an unknown tenant); without it they read the service's:
//   GET  /metrics[?tenant=NAME]  — Prometheus text of the tenant's
//       registry, or of the server-wide one (serve.* + shard.* families);
//   GET  /statusz?tenant=NAME    — the tenant's pipeline status JSON;
//   GET  /eventsz?tenant=NAME    — the tenant's recent lifecycle events,
//       `?n=` caps the count;
//   GET  /explainz?tenant=NAME[&step=S][&doc=D] — step S's decisions
//       (default: the tenant's last step), re-run from its store;
//   GET  /tracez                 — request-trace introspection (when a
//       tracer is wired): ?trace=ID one trace's stage waterfall,
//       ?tenant=T&n=K a tenant's recent completed traces (K in [1, 256]),
//       bare the aggregate per-stage summary plus recent traces;
//   GET  /slosz                  — per-tenant SLO burn-rate evaluation
//       (when an SLO engine is wired).
// Every read endpoint answers 405 to any method but GET.
//
// With a tracer, POST /ingest accepts a W3C `traceparent` header (minting
// a fresh trace id when absent or malformed), stamps the ingest stage,
// and echoes the trace id in the 202 body. With an SLO engine, every
// /ingest response feeds the availability objective (good = not 429/503)
// and /healthz carries the burning-tenant detail fields. 429 responses
// derive Retry-After from the owning shard's recent queue drain rate.

#ifndef NIDC_SHARD_HTTP_H_
#define NIDC_SHARD_HTTP_H_

#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/serve/http_server.h"
#include "nidc/shard/service.h"

namespace nidc::shard {

/// Registers every endpoint above on `server`. `default_config` seeds
/// op=create (query parameters override individual fields). Call before
/// HttpServer::Start; `service` (and, when supplied, `tracer` and `slo`)
/// must outlive the server. Null tracer/slo disable the corresponding
/// endpoints (they answer 404).
void RegisterShardHandlers(serve::HttpServer* server, ShardService* service,
                           const TenantConfig& default_config,
                           obs::RequestTracer* tracer = nullptr,
                           obs::SloEngine* slo = nullptr);

}  // namespace nidc::shard

#endif  // NIDC_SHARD_HTTP_H_
