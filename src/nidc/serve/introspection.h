// The introspection endpoints served over http_server.h:
//
//   GET /metrics  — the full MetricsRegistry in Prometheus text format;
//   GET /healthz  — liveness JSON: last-step age, step count, WAL records
//                   since the last checkpoint vs the rotation cadence,
//                   plus the replication role ("standalone" / "leader" /
//                   "follower"), replication_lag_records and
//                   last_ship_age_s. 200 while stepping, 503 once the
//                   last step is older than `stale_after_seconds`;
//   GET /statusz  — pipeline status JSON: step counter, document counts,
//                   the G trajectory tail, per-cluster health rows
//                   (stable id, size, avg_sim, age, drift), churn/EWMA
//                   summary, durability lag and rep-index build stats;
//   GET /eventsz  — the recent lifecycle events (obs/event_log.h) as a
//                   JSON array, newest last; `?n=` caps the count;
//   GET /timeseriesz — the in-process time-series store
//                   (obs/timeseries.h): without parameters the series
//                   index, with `?metric=NAME&res=R` the retained windows
//                   of one series at one resolution;
//   GET /profilez — the continuous self-profiler (obs/profiler.h):
//                   `?format=json` (default) the phase table,
//                   `?format=collapsed` flamegraph collapsed-stack text,
//                   `?format=chrome` trace-event JSON;
//   GET /explainz — decision explanations: `?step=S` re-runs step S
//                   from the store (ExplainStep, store/durable_clusterer.h)
//                   and answers every document's decision, `&doc=D` just
//                   D's; without a step, the board's last step. 400 for a
//                   malformed step or doc, 404 for a step the store no
//                   longer holds or a doc that step did not cluster;
//   GET /tracez   — request traces (obs/reqtrace.h): `?trace=ID` one
//                   trace's stage waterfall, `?tenant=T&n=K` recent
//                   completed traces (K clamped to [1, 256]; 20 when
//                   absent or malformed), bare the aggregate stage summary;
//   GET /slosz    — per-tenant SLO burn-rate evaluation (obs/slo.h).
//
// Every read endpoint answers 405 to any method but GET. This file is the
// only renderer of these bodies: the single-stream server registers them
// with fixed sources (RegisterIntrospectionEndpoints), and the sharded
// service's routes pick a tenant's sources per request (ServeReadEndpoint).
//
// The pipeline side of the contract is StatusBoard: the driver calls
// RecordStep after every completed step (and RecordDurability after each
// durable step) while the server thread renders snapshots — one mutex,
// no shared mutable state beyond it.

#ifndef NIDC_SERVE_INTROSPECTION_H_
#define NIDC_SERVE_INTROSPECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "nidc/core/extended_kmeans.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/obs/timeseries.h"
#include "nidc/serve/http_server.h"

namespace nidc::serve {

/// Durability lag as /healthz reports it (all zero when not running
/// through a DurableClusterer).
struct DurabilityStatus {
  bool enabled = false;
  uint64_t generation = 0;
  /// WAL records appended since the last checkpoint — the stream a crash
  /// right now would have to replay.
  uint64_t wal_records_since_checkpoint = 0;
  uint64_t checkpoint_every = 0;
};

/// Replication role and lag as /healthz reports it. A leader publishes
/// from its WalShipper stats (lag = slowest follower behind the head), a
/// follower from its ReplicaClusterer stats (lag = records behind the
/// leader head it last heard about).
struct ReplicationStatus {
  bool enabled = false;
  /// "standalone", "leader", or "follower".
  std::string role = "standalone";
  uint64_t generation = 0;
  uint64_t replication_lag_records = 0;
  /// Seconds since a frame last moved (leader: last successful send;
  /// follower: last received frame).
  double last_ship_age_seconds = 0.0;
  /// Live follower sessions (leader side; 0 on a follower).
  uint64_t followers = 0;
};

/// Thread-safe blackboard between the step loop and the server thread.
class StatusBoard {
 public:
  /// The step-level digest the driver publishes after each step.
  struct StepRecord {
    uint64_t step = 0;
    size_t num_new = 0;
    size_t num_active = 0;
    size_t num_outliers = 0;
    size_t num_clusters = 0;  ///< Non-empty clusters.
    int iterations = 0;
    double g = 0.0;
    double stats_seconds = 0.0;
    double clustering_seconds = 0.0;
  };

  StatusBoard();

  /// Publishes one completed step (stamps the liveness clock and appends
  /// to the G trajectory tail).
  void RecordStep(const StepRecord& record);

  /// Publishes the durability lag after a durable step.
  void RecordDurability(const DurabilityStatus& durability);

  /// Publishes the replication role + lag (leaders after each step or
  /// rotation, followers after each applied frame).
  void RecordReplication(const ReplicationStatus& replication);

  /// Copy of the newest step record; valid() is false before any step.
  StepRecord last_step() const;
  bool valid() const;
  DurabilityStatus durability() const;
  ReplicationStatus replication() const;
  /// The retained G trajectory tail, oldest first (most recent 64 steps).
  std::vector<double> g_tail() const;
  /// Seconds since the last RecordStep (since construction before any).
  double seconds_since_last_step() const;
  /// Seconds since construction.
  double uptime_seconds() const;

 private:
  double NowSeconds() const;

  mutable std::mutex mu_;
  bool valid_ = false;
  StepRecord last_;
  DurabilityStatus durability_;
  ReplicationStatus replication_;
  std::deque<double> g_tail_;
  double start_seconds_ = 0.0;
  double last_step_seconds_ = 0.0;
};

/// What the endpoints read. Every pointer may be null — the corresponding
/// sections are simply omitted (a /statusz without a health monitor still
/// reports the step digest).
struct IntrospectionOptions {
  obs::MetricsRegistry* metrics = nullptr;
  const obs::EventLog* events = nullptr;
  const obs::ClusterHealthMonitor* health = nullptr;
  const StatusBoard* board = nullptr;
  /// /timeseriesz source; null leaves the endpoint unregistered.
  const obs::TimeSeriesStore* timeseries = nullptr;
  /// /profilez source; null leaves the endpoint unregistered.
  const obs::PhaseProfiler* profiler = nullptr;
  /// /explainz source: step S's decisions, re-run from the store; empty
  /// leaves the endpoint unregistered.
  std::function<Result<std::vector<DecisionRecord>>(uint64_t step)> explain;
  /// /tracez source; null leaves the endpoint unregistered. Also adds
  /// the aggregate stage waterfall to /statusz.
  const obs::RequestTracer* tracer = nullptr;
  /// /slosz source (non-const: reading evaluates the burn rates); null
  /// leaves the endpoint unregistered. Also adds burning-tenant detail
  /// fields to /healthz.
  obs::SloEngine* slo = nullptr;
  /// /healthz turns 503 when the last step is older than this.
  double stale_after_seconds = 600.0;
};

/// Registers every endpoint above on `server` (endpoints whose source
/// pointer is null are skipped). Call before HttpServer::Start.
void RegisterIntrospectionEndpoints(HttpServer* server,
                                    const IntrospectionOptions& options);

/// Answers `request` for the read endpoint `path` (one of those above)
/// from `sources`: 405 for any method but GET, 404 when `path` is no read
/// endpoint or `sources` lacks its source.
HttpResponse ServeReadEndpoint(const std::string& path,
                               const IntrospectionOptions& sources,
                               const HttpRequest& request);

/// Adds the /healthz SLO detail fields: "slo_burning" and the
/// "slo_burning_tenants" array.
void AddSloBurning(obs::SloEngine& slo, obs::JsonObjectBuilder* builder);

/// Renders one decision of step `step` as a JSON object, omitting the
/// cluster positions that do not apply; /explainz and `nidc_cli stream
/// --provenance-out` both write it.
std::string RenderDecisionJson(uint64_t step, const DecisionRecord& record);

/// Renders the /statusz payload (exposed for nidc_cli inspect tests).
std::string RenderStatusJson(const IntrospectionOptions& options);

/// Renders the /healthz payload; `*healthy` reports the verdict.
std::string RenderHealthJson(const IntrospectionOptions& options,
                             bool* healthy);

}  // namespace nidc::serve

#endif  // NIDC_SERVE_INTROSPECTION_H_
