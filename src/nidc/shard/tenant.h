// One tenant of the sharded service: a topic feed owning a full private
// pipeline — corpus, DurableClusterer (WAL + checkpoints), TimeBatcher,
// metrics registry, event log, health monitor and StatusBoard. Tenants
// share nothing mutable; the owning shard worker is the only thread that
// calls the mutating interface (Ingest/FlushUntil/Checkpoint/Close),
// while the introspection accessors (board(), metrics(), health()) are
// internally synchronized and safe from HTTP worker threads.
//
// On-disk layout under the tenant directory (see docs/serving.md):
//   TENANT.json   — the persisted TenantConfig (identity of the feed),
//                   with "layout": 2; Open refuses a TENANT.json without
//                   it (the older corpus index layout) and writes nothing;
//   store/        — the DurableClusterer's WAL + generation snapshots,
//                   the tenant's only commit point: each ingested batch
//                   is one corpus record (its new terms and analyzed
//                   documents) in the WAL ahead of the step records that
//                   name its ids, and each snapshot carries the live
//                   window (vocabulary + retained documents);
//   corpus.tsv    — an archive of the raw documents (corpus_io TSV),
//                   appended after the batch's corpus record, flushed but
//                   never fsynced, and never read.
//
// Reopen (Tenant::Open) reads only TENANT.json and store/:
// DurableClusterer::Open restores the snapshot's live window and the WAL
// tail's corpus and step records, in order, bit-identically. The
// TimeBatcher seeks to the recovered clock; documents the WAL had not yet
// stepped (time >= recovered clock — an invariant, since a stepped
// document's time is strictly below its window end) are re-primed into
// the open window, re-running any window that closed but never reached a
// step record. A crash between a batch's corpus record and its step
// record therefore heals instead of diverging. The service runs Open on
// the tenant's owning shard worker — at startup every shard recovers its
// own tenants in parallel with the others — so the thread that rebuilds a
// tenant is the one that will own it.
//
// Memory and the store are bounded by the live window, not the feed's
// history: after every successful step the tenant releases from its
// in-memory corpus every id below both its oldest active document and its
// oldest unstepped one. ExpireDocuments has already subtracted those
// documents' terms, and no window re-drives them, so no snapshot carries
// them either.

#ifndef NIDC_SHARD_TENANT_H_
#define NIDC_SHARD_TENANT_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "nidc/corpus/corpus_io.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/serve/introspection.h"
#include "nidc/store/durable_clusterer.h"

namespace nidc::shard {

/// The persisted identity of a tenant feed — everything that must be
/// equal between a live tenant and its reopened successor (or a CLI
/// replay of the same feed) for the states to be bit-identical.
struct TenantConfig {
  /// Forgetting model (β half-life, γ life span).
  ForgettingParams params;
  /// Cluster count K of every step.
  size_t k = 8;
  /// Batching window length in days.
  double step_days = 1.0;
  /// Start of the first window.
  DayTime start_time = 0.0;
  /// K-means seed (per-step stream offset is part of durable state). At
  /// most kMaxSeed, so TENANT.json's JSON number holds it exactly.
  uint64_t seed = 42;

  static constexpr uint64_t kMaxSeed = uint64_t{1} << 53;

  Status Validate() const;

  /// TENANT.json round trip.
  std::string ToJson() const;
  static Result<TenantConfig> FromJson(const std::string& json);
};

/// Host-side (non-persisted) wiring a tenant runs with.
struct TenantRuntime {
  /// Filesystem; null selects Env::Default().
  Env* env = nullptr;
  /// DurableClusterer rotation cadence.
  uint64_t checkpoint_every = 16;
  WalSyncMode wal_sync = WalSyncMode::kEveryRecord;
  /// Cross-tenant `shard.*` family (doc counters, step counters); null
  /// disables. Per-tenant pipeline metrics always go to the tenant's own
  /// registry regardless.
  obs::MetricsRegistry* shared_metrics = nullptr;
  /// Process-wide request tracer; null disables stage stamping. The
  /// tenant binds ingested documents to their batch's trace, stamps
  /// window close, and scopes the closing window's traces onto the step
  /// thread so the durability and replication layers stamp their stages.
  obs::RequestTracer* tracer = nullptr;
};

class Tenant {
 public:
  /// Creates a fresh tenant directory (AlreadyExists when `dir` already
  /// holds a TENANT.json) and opens it. store/ and corpus.tsv come first;
  /// writing TENANT.json commits the tenant, and a final sync of `dir`'s
  /// parent makes its entry durable.
  static Result<std::unique_ptr<Tenant>> Create(const std::string& name,
                                                const std::string& dir,
                                                const TenantConfig& config,
                                                const TenantRuntime& runtime);

  /// Reopens a tenant from disk, recovering as described above
  /// (NotFound when `dir` has no TENANT.json, FailedPrecondition when it
  /// is in the old corpus index layout).
  static Result<std::unique_ptr<Tenant>> Open(const std::string& name,
                                              const std::string& dir,
                                              const TenantRuntime& runtime);

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;
  ~Tenant();

  /// Ingests one batch: snaps times to the corpus.tsv grid
  /// (CanonicalTime), validates (times non-decreasing and not before
  /// anything already ingested — the feed is chronological end to end),
  /// analyzes into the corpus, pushes through the TimeBatcher, logs the
  /// batch's corpus record, appends it to the corpus.tsv archive and
  /// steps every window that closes. Under kEveryRecord that is one fsync:
  /// the first step record's, or the corpus record's own when no window
  /// closes; under kNone there is none.
  /// InvalidArgument rejections change nothing; an IOError marks the
  /// tenant failed (storage in unknown state — evict and reopen). A
  /// valid `trace` is bound to every document of the batch so the later
  /// window close can stamp the remaining pipeline stages.
  Status Ingest(const std::vector<RawDocument>& docs,
                const obs::TraceContext& trace = obs::TraceContext());

  /// Closes and steps every window up to `until` (final partial window
  /// included), exactly like a DocumentStream replay ending at `until`.
  Status FlushUntil(DayTime until);

  /// Forces a checkpoint rotation.
  Status Checkpoint();

  /// Final checkpoint + WAL close; the destructor calls it too.
  Status Close();

  /// Serialized ClustererState of the current model — the bit-identity
  /// currency of the equivalence tests.
  std::string StateDigest() const;

  /// Step `step`'s decisions, re-run from store/ into a scratch corpus
  /// (ExplainStep). Safe from any thread: it reads the tenant's files and
  /// its immutable config, never the live pipeline.
  Result<std::vector<DecisionRecord>> Explain(uint64_t step) const;

  const std::string& name() const { return name_; }
  const TenantConfig& config() const { return config_; }
  // The four accessors below are safe from any thread: the owner
  // publishes them after Boot, Ingest and FlushUntil (and failed_ as soon
  // as storage fails).
  /// Storage hit an unknown state; the tenant refuses further work.
  bool failed() const { return failed_; }
  /// Start of the open (not yet stepped) window.
  DayTime now() const { return now_; }
  uint64_t docs_ingested() const { return docs_ingested_; }
  uint64_t steps_applied() const { return steps_applied_; }
  /// Windows skipped because they were empty with no active documents.
  uint64_t empty_windows_skipped() const { return empty_windows_skipped_; }
  const RecoveryInfo& recovery() const;

  // Introspection surfaces (thread-safe; read by HTTP workers).
  const serve::StatusBoard& board() const { return board_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::ClusterHealthMonitor& health() const { return *health_; }
  const obs::EventLog& events() const { return *events_; }
  const DurableClusterer& durable() const { return *durable_; }
  /// The tenant's corpus; owner thread only, like the mutating calls.
  const Corpus& corpus() const { return *corpus_; }

 private:
  Tenant(std::string name, std::string dir, TenantConfig config,
         TenantRuntime runtime);

  /// Shared tail of Create/Open: opens the store, which restores the
  /// corpus, seeks the batcher and re-primes unstepped docs.
  Status Boot(bool fresh);

  /// Steps every closed window, skipping benign empty-window
  /// FailedPreconditions and publishing telemetry.
  Status StepWindows(std::vector<DocumentBatch>& closed);

  void PublishStep(const DocumentBatch& window, const StepResult& result);

  /// Releases the corpus prefix no active or unstepped document is in;
  /// called only after a successful StepWindows.
  void ReleaseStepped();

  /// Copies the batcher clock and the applied step count into the
  /// atomics the cross-thread accessors read, and the corpus sizes into
  /// corpus_gauges_; called after every StepWindows.
  void PublishProgress();

  std::string name_;
  std::string dir_;
  TenantConfig config_;
  TenantRuntime runtime_;

  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::EventLog> events_;
  std::unique_ptr<obs::ClusterHealthMonitor> health_;
  serve::StatusBoard board_;

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<DurableClusterer> durable_;
  /// The corpus.tsv archive.
  std::unique_ptr<WritableFile> corpus_file_;
  TimeBatcher batcher_;
  /// Newest ingested document time; the chronological floor.
  DayTime last_time_ = 0.0;
  uint64_t empty_windows_skipped_ = 0;
  bool closed_ = false;
  /// One corpus-size gauge on this tenant's registry and its sum over the
  /// tenants on the shared registry (null without one), with this
  /// tenant's last published share of the sum.
  struct CorpusGauge {
    obs::Gauge* own = nullptr;
    obs::Gauge* shared = nullptr;
    double published = 0.0;
  };
  /// shard.tenant.corpus_X and shard.corpus.X for each X of
  /// kCorpusGauges (tenant.cc): retained docs, their term entries and
  /// heap bytes, and the vocabulary's terms and heap bytes.
  std::array<CorpusGauge, 5> corpus_gauges_;
  // Written only by the owner, read from any thread.
  std::atomic<uint64_t> docs_ingested_{0};
  std::atomic<uint64_t> steps_applied_{0};
  std::atomic<DayTime> now_{0.0};
  std::atomic<bool> failed_{false};
};

/// Publishes a completed step to `board`: its step record under the
/// 0-based index `step`, and, when `durable` is not null, the store's
/// durability lag. A tenant calls it after each step, and so does the
/// single-stream `nidc_cli stream` loop.
void PublishStepStatus(uint64_t step, const StepResult& result,
                       const DurableClusterer* durable,
                       serve::StatusBoard* board);

}  // namespace nidc::shard

#endif  // NIDC_SHARD_TENANT_H_
