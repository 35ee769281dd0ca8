// End-to-end per-document request tracing across the ingest pipeline.
//
// A `TraceContext` is minted when a document batch enters the system
// (`POST /ingest`, or CLI stream ingest) — or accepted from a W3C-style
// `traceparent` header — and rides the batch through every layer the
// pipeline crosses:
//
//   ingest -> enqueue -> dequeue -> window_close -> wal_commit -> ship
//          -> step -> checkpoint -> apply
//
// Each crossing appends a monotonic timestamp to the trace's record in
// one mutex-guarded, bounded trace table, and in the same critical
// section observes the stage's duration into per-tenant per-stage
// latency histograms (with exemplar trace ids on every bucket) and the
// aggregate `pipeline.stage_seconds.<stage>` registry histograms. No
// stamp is ever dropped. A trace takes the lock about once per pipeline
// stage, too rarely for contention to call for a lock-free side path.
//
// Layers below the shard service (DurableClusterer, WalShipper) do not
// know trace ids; the tenant scopes the traces of a closing window onto
// the calling thread with `StepScope`, and those layers call
// `RecordActive(stage)`. The shipper additionally registers the active
// traces under their (generation, sequence) watermark so a follower's
// `RecordApplied` — which only knows the watermark — can stamp the apply
// stage when leader and follower share a tracer (in-process tests and
// benches; cross-process followers simply have no registration and skip).
//
// Doc→trace bindings are owned here, not by the tenant, so they survive
// tenant evict/reopen: a document ingested before a crash point still
// completes its stage record — flagged `resumed` — after recovery
// re-drives its window. The tenant unbinds a window's documents once it
// has stepped, so the table holds only documents still waiting for their
// window.
//
// Like every obs hook, call sites take a `RequestTracer*` that may be
// null, and a null tracer means no work at all.

#ifndef NIDC_OBS_REQTRACE_H_
#define NIDC_OBS_REQTRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nidc/obs/metrics.h"

namespace nidc::obs {

/// 128-bit trace identity, propagated as the W3C `traceparent` trace-id.
struct TraceContext {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return hi != 0 || lo != 0; }
  bool operator==(const TraceContext& other) const {
    return hi == other.hi && lo == other.lo;
  }

  /// 32 lowercase hex chars (the traceparent trace-id field).
  std::string ToHex() const;

  /// `00-<trace-id>-<parent-id>-01` (parent-id is the low half — this
  /// system does not model spans, only the document's pipeline).
  std::string ToTraceparent() const;

  /// Parses a 32-hex trace id; invalid input (wrong length, non-hex,
  /// all-zero) yields an invalid context.
  static TraceContext FromHex(std::string_view hex);

  /// Parses a `version-traceid-parentid-flags` traceparent header per the
  /// W3C shape: 2/32/16/2 hex fields, version != "ff", trace id non-zero.
  /// Malformed headers yield an invalid context (the caller mints fresh).
  static TraceContext FromTraceparent(std::string_view header);
};

/// Pipeline stages, in nominal pipeline order. Values are dense — they
/// index fixed-size per-stage arrays.
enum class Stage : uint8_t {
  kIngest = 0,    ///< request accepted at the front door (or CLI ingest)
  kEnqueue,       ///< admitted to a shard's bounded ingest queue
  kDequeue,       ///< picked up by the shard worker
  kWindowClose,   ///< the document's time window closed in the batcher
  kWalCommit,     ///< step record appended (+synced) to the local WAL
  kShip,          ///< record handed to the replication shipper
  kStep,          ///< applied to the clusterer (end-to-end completion)
  kCheckpoint,    ///< snapshot generation committed after this step
  kApply,         ///< follower replayed the record (when replicated)
};

inline constexpr size_t kNumStages = 9;

/// Stable lower_snake_case stage name (the JSON `stage` field).
const char* StageName(Stage stage);

/// One stamped pipeline crossing of one trace.
struct StageStamp {
  Stage stage = Stage::kIngest;
  double seconds = 0.0;  ///< monotonic (steady-clock) timestamp
};

/// The recorded lifetime of one trace.
struct TraceRecord {
  TraceContext id;
  std::string tenant;
  /// Stamps in recording order.
  std::vector<StageStamp> stages;
  /// Set once the step stage lands — the document reached the clusterer.
  bool completed = false;
  /// Recovery re-drove this trace's window after a crash or reopen.
  bool resumed = false;

  /// First stamp of `stage`, or -1 when the stage never happened.
  double StageSeconds(Stage stage) const;
  /// step - first stamp (enqueue-to-applied), or -1 while incomplete.
  double EndToEndSeconds() const;
};

/// Bucket upper bounds of every stage histogram, seconds.
inline constexpr std::array<double, 14> kStageBuckets = {
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   10.0};

/// Per-(tenant, stage) latency aggregate over kStageBuckets with
/// per-bucket exemplars: the trace id of the last observation to land in
/// each bucket, so the p99 bucket always carries a concrete trace to pull
/// up in `/tracez`.
struct StageAggregate {
  /// One per bound + overflow.
  std::array<uint64_t, kStageBuckets.size() + 1> counts{};
  /// Parallel to counts.
  std::array<TraceContext, kStageBuckets.size() + 1> exemplars{};
  uint64_t total = 0;
  double sum = 0.0;

  /// Linear-interpolated quantile estimate from the bucket counts
  /// (0 when empty).
  double Quantile(double q) const;
  /// Exemplar of the highest-occupied bucket at or above quantile `q`.
  TraceContext ExemplarAt(double q) const;
};

/// Thread-safe end-to-end pipeline tracer. One instance serves the whole
/// process (all shards, the durability layer, the shipper); one mutex
/// guards the bounded trace table and its aggregates.
class RequestTracer {
 public:
  /// Doc→trace bindings retained (oldest evicted first) — a backstop for
  /// documents whose window never steps.
  static constexpr size_t kMaxDocBindings = 1 << 16;
  /// Pending (generation, sequence)→traces ship registrations.
  static constexpr size_t kMaxShipments = 1024;

  struct Options {
    /// Open + completed trace records retained (oldest evicted first).
    size_t max_records = 1024;
    /// When supplied, the tracer eagerly registers the `pipeline.*`
    /// family and mirrors stage observations into
    /// `pipeline.stage_seconds.<stage>` histograms.
    MetricsRegistry* metrics = nullptr;
    /// Called (outside the tracer lock) whenever a trace completes, with
    /// its tenant and enqueue-to-applied latency — the SLO engine's
    /// latency feed.
    std::function<void(const std::string& tenant, double e2e_seconds,
                       double now_seconds)>
        on_complete;
  };

  RequestTracer();
  explicit RequestTracer(Options options);

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  /// Mints a fresh (unique, non-zero) trace id.
  TraceContext Mint();

  /// Registers `id` as an open trace for `tenant`. Idempotent; re-opening
  /// a known trace only updates an empty tenant.
  void Begin(const TraceContext& id, const std::string& tenant);

  /// Stamps `stage` for `id` at `seconds` (defaults to now) onto its
  /// record (opened tenant-less when `id` was never begun). The first
  /// step stamp completes the trace and fires `on_complete`.
  void RecordStage(const TraceContext& id, Stage stage,
                   double seconds = -1.0);

  /// Binds a document to its batch's trace so window close can recover
  /// the trace ids of the documents it sweeps in.
  void BindDoc(const std::string& tenant, uint64_t doc,
               const TraceContext& id);

  /// Drops the bindings of `docs` of `tenant` (called once their window
  /// has stepped); unbound documents are skipped.
  void UnbindDocs(const std::string& tenant,
                  const std::vector<uint64_t>& docs);

  /// Distinct traces bound to `docs` of `tenant` (bindings stay until
  /// unbound or evicted by the bound).
  std::vector<TraceContext> TracesForDocs(
      const std::string& tenant, const std::vector<uint64_t>& docs) const;

  /// Doc→trace bindings currently held.
  size_t doc_bindings() const;

  /// Flags `id` as re-driven by crash/reopen recovery.
  void MarkResumed(const TraceContext& id);

  /// Scopes `traces` onto the calling thread for the duration of a
  /// clusterer step, so the layers below (store, repl) can stamp stages
  /// without knowing trace ids.
  class StepScope {
   public:
    StepScope(RequestTracer* tracer, std::vector<TraceContext> traces);
    ~StepScope();
    StepScope(const StepScope&) = delete;
    StepScope& operator=(const StepScope&) = delete;

   private:
    RequestTracer* tracer_;
  };

  /// Stamps `stage` for every trace in the calling thread's StepScope
  /// (no-op without one — e.g. a control-plane checkpoint).
  void RecordActive(Stage stage);

  /// Remembers the calling thread's active traces under the WAL
  /// watermark `(generation, sequence)` (called by the shipper on the
  /// step thread).
  void RegisterShipment(uint64_t generation, uint64_t sequence);

  /// Stamps the apply stage for the traces registered under
  /// `(generation, sequence)` and drops the registration.
  void RecordApplied(uint64_t generation, uint64_t sequence);

  /// The record of `id`, if still retained.
  bool Lookup(const TraceContext& id, TraceRecord* out) const;

  /// Newest completed traces, oldest first, optionally for one tenant.
  std::vector<TraceRecord> Completed(size_t max_traces,
                                     const std::string& tenant = "") const;

  /// Per-(tenant, stage) aggregates; tenant "" is the all-tenant roll-up.
  std::map<std::string, std::vector<StageAggregate>> Aggregates() const;

  /// `/tracez` JSON: `?trace=ID` for one trace, `?tenant=T&n=K` for a
  /// tenant's recent completed traces, otherwise the aggregate stage
  /// waterfall plus recent traces.
  std::string RenderTracezJson(const std::string& trace_hex,
                               const std::string& tenant, size_t n) const;

  /// The aggregate stage waterfall JSON object (embedded in /statusz).
  std::string RenderWaterfallJson() const;

  uint64_t traces_started() const;
  uint64_t traces_completed() const;
  /// Always 0: stamps append under the lock. Kept because the
  /// end-to-end harness (bench/e2e) checks it after every run.
  uint64_t stage_events_dropped() const { return 0; }

  /// Monotonic seconds (steady clock), the tracer's time base.
  static double NowSeconds();

 private:
  struct DocKey {
    std::string tenant;
    uint64_t doc;
    bool operator<(const DocKey& other) const {
      if (tenant != other.tenant) return tenant < other.tenant;
      return doc < other.doc;
    }
  };

  const TraceRecord* FindLocked(const TraceContext& id) const;
  TraceRecord* FindLocked(const TraceContext& id) {
    return const_cast<TraceRecord*>(std::as_const(*this).FindLocked(id));
  }
  /// Opens a record for `id` (not yet in the table) and evicts past the
  /// bound; the new record is never the one evicted.
  TraceRecord* InsertLocked(const TraceContext& id,
                            const std::string& tenant);
  void EvictLocked();
  void ObserveStageLocked(const std::string& tenant, Stage stage,
                          double duration, const TraceContext& id);
  std::vector<StageAggregate>& TenantAggregatesLocked(
      const std::string& tenant);

  Options options_;
  std::atomic<uint64_t> mint_state_;

  mutable std::mutex mu_;
  std::deque<TraceRecord> records_;
  std::map<std::pair<uint64_t, uint64_t>, size_t> index_;  // id -> offset
  uint64_t records_evicted_ = 0;  // front offset of records_[0]
  struct DocBinding {
    TraceContext trace;
    uint64_t seq = 0;  // key into doc_binding_order_
  };
  std::map<DocKey, DocBinding> doc_bindings_;
  // Binding sequence -> binding, oldest first, for the bound's eviction.
  std::map<uint64_t, std::map<DocKey, DocBinding>::iterator>
      doc_binding_order_;
  uint64_t next_binding_seq_ = 0;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<TraceContext>>
      shipments_;
  std::deque<std::pair<uint64_t, uint64_t>> shipment_order_;
  std::map<std::string, std::vector<StageAggregate>> aggregates_;
  uint64_t traces_started_ = 0;
  uint64_t traces_completed_ = 0;

  // pipeline.* instruments (null without a registry).
  Counter* started_counter_ = nullptr;
  Counter* completed_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* events_counter_ = nullptr;
  Gauge* open_gauge_ = nullptr;
  Gauge* bindings_gauge_ = nullptr;
  Histogram* stage_histograms_[kNumStages] = {};
  Histogram* e2e_histogram_ = nullptr;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_REQTRACE_H_
