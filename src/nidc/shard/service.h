// The multi-tenant shard service: N shard worker threads, each owning a
// disjoint set of tenants (assignment by stable name hash), each with a
// bounded FIFO ingest queue. Re-entrancy boundaries, in order:
//
//   * a tenant's mutating interface is only ever called by its owning
//     shard worker — no locks inside Tenant, no shared mutable state
//     between shards;
//   * the tenant map itself is under one service mutex, touched briefly
//     for lookup/insert/erase; tenants are held by shared_ptr so an HTTP
//     worker rendering /statusz keeps its tenant alive across a
//     concurrent eviction (the surfaces it reads — StatusBoard, metrics
//     registry, health snapshot — are internally synchronized);
//   * anything that must read clusterer internals (StateDigest) runs as
//     a synchronous job on the owning shard, never cross-thread;
//   * each shard steps its tenants on its own worker thread (K-means
//     runs on that thread), so the shard is the unit of parallelism;
//     `num_shards` defaults to the hardware concurrency.
//
// Backpressure contract: EnqueueIngest is asynchronous (the HTTP layer
// answers 202 on accept); when the owning shard already holds
// `queue_capacity` pending ingest batches the call returns OutOfRange,
// which the HTTP layer maps to 429 + Retry-After. Control jobs (create,
// evict, flush, digest, drain barriers) do not count against the
// capacity and are never rejected, so operators can always drain a
// backed-up shard.

#ifndef NIDC_SHARD_SERVICE_H_
#define NIDC_SHARD_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nidc/obs/reqtrace.h"
#include "nidc/shard/tenant.h"

namespace nidc::shard {

struct ShardServiceOptions {
  /// Service root; tenants live under `<root>/tenants/<name>/`. Required.
  std::string root;
  /// Shard worker threads. 0 = hardware concurrency.
  size_t num_shards = 0;
  /// Pending ingest batches per shard before EnqueueIngest pushes back.
  size_t queue_capacity = 64;
  /// Per-tenant durability cadence + fsync policy.
  uint64_t checkpoint_every = 16;
  WalSyncMode wal_sync = WalSyncMode::kEveryRecord;
  /// Filesystem; null selects Env::Default().
  Env* env = nullptr;
  /// `shard.*` family sink shared with the HTTP server; null = the
  /// service owns a private registry (exposed via metrics()).
  obs::MetricsRegistry* metrics = nullptr;
  /// Process-wide request tracer; null disables stage stamping. The
  /// service stamps enqueue/dequeue and hands the tracer down to every
  /// tenant (window close, WAL commit, step, checkpoint, ship, apply).
  obs::RequestTracer* tracer = nullptr;
};

/// Summary row of one tenant, safe to read from any thread.
struct TenantInfo {
  std::string name;
  size_t shard = 0;
  bool failed = false;
  uint64_t docs_ingested = 0;
  uint64_t steps_applied = 0;
  DayTime now = 0.0;
};

class ShardService {
 public:
  /// Creates the root layout, starts the shard workers and reopens every
  /// tenant directory found under `<root>/tenants/` before returning, so
  /// traffic never meets a half-recovered service. Crash recovery runs on
  /// the owning shard workers: each shard reopens its own tenants, in
  /// name order, in parallel with the other shards. When tenants fail to
  /// reopen, Start returns the error of the lowest-named one.
  static Result<std::unique_ptr<ShardService>> Start(
      ShardServiceOptions options);

  ShardService(const ShardService&) = delete;
  ShardService& operator=(const ShardService&) = delete;

  /// Drains every queue, closes every tenant (final checkpoints), joins
  /// the workers. Idempotent; the destructor calls it.
  void Stop();
  ~ShardService();

  /// Creates a tenant (AlreadyExists if live or on disk) on its shard.
  Status CreateTenant(const std::string& name, const TenantConfig& config);

  /// Reopens an evicted (or never-opened) tenant directory from disk.
  Status OpenTenant(const std::string& name);

  /// Closes the tenant (final checkpoint) and drops it from the service;
  /// its directory stays on disk for OpenTenant. Queued ingest for it is
  /// dropped (counted in shard.ingest.dropped).
  Status EvictTenant(const std::string& name);

  /// Asynchronously ingests one batch on the tenant's shard. OutOfRange
  /// = owning shard queue full (HTTP 429); NotFound = no such tenant;
  /// FailedPrecondition = tenant failed (HTTP 503). `docs` must already
  /// be parsed/sanitized (ParseIngestJsonl output). A valid `trace`
  /// rides the batch through the pipeline; the enqueue stage is stamped
  /// here on admission.
  Status EnqueueIngest(const std::string& name, std::vector<RawDocument> docs,
                       obs::TraceContext trace = obs::TraceContext());

  /// Synchronous per-tenant operations (run on the owning shard).
  Status Flush(const std::string& name, DayTime until);
  Status Checkpoint(const std::string& name);
  Result<std::string> StateDigest(const std::string& name);

  /// Barrier: returns once every job enqueued before the call has run.
  void Drain();

  /// Tenant lookup for the introspection layer; null when absent. Only
  /// the internally-synchronized surfaces (board(), metrics(), health(),
  /// plain accessors) may be used from non-shard threads.
  std::shared_ptr<Tenant> GetTenant(const std::string& name) const;

  std::vector<std::string> TenantNames() const;
  std::vector<TenantInfo> Tenants() const;

  /// Pending ingest batches on one shard / across all shards.
  size_t QueueDepth(size_t shard) const;
  size_t TotalQueueDepth() const;

  /// Suggested Retry-After (whole seconds, clamped to [1, 30]) for a 429
  /// on `shard`: pending batches divided by the shard's recent drain
  /// rate. Falls back to 1 before enough completions have been observed.
  int RetryAfterHintSeconds(size_t shard) const;

  /// Wall time of the startup reopen and the tenants it recovered (the
  /// `shard.recovery.seconds` gauge and `shard.recovery.tenants` counter).
  double recovery_seconds() const { return recovery_seconds_; }
  size_t recovered_tenants() const { return recovered_tenants_; }

  size_t num_shards() const { return shards_.size(); }
  const std::string& root() const { return options_.root; }
  obs::MetricsRegistry* metrics() { return metrics_; }
  obs::RequestTracer* tracer() const { return options_.tracer; }

  /// Stable shard assignment of a tenant name.
  size_t ShardOf(const std::string& name) const;

  /// [A-Za-z0-9_.-], 1..64 chars, no leading dot — names are directory
  /// components and HTTP query values.
  static Status ValidateTenantName(const std::string& name);

 private:
  struct Job {
    bool is_ingest = false;
    std::string tenant;               // ingest only
    std::vector<RawDocument> docs;    // ingest only
    double enqueued_seconds = 0.0;    // ingest only
    obs::TraceContext trace;          // ingest only (may be invalid)
    std::function<void()> call;       // control jobs
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    size_t ingest_pending = 0;  // capacity accounting (ingest jobs only)
    /// Completion timestamps of recent ingest jobs (bounded), the 429
    /// Retry-After drain-rate estimate.
    std::deque<double> completion_seconds;
    bool stopping = false;
    std::thread worker;
  };

  struct Entry {
    std::shared_ptr<Tenant> tenant;
    size_t shard = 0;
  };

  explicit ShardService(ShardServiceOptions options);

  Status Init();
  /// The startup reopen: one job per non-empty shard, awaited.
  Status RecoverTenants(Env* env);
  void WorkerLoop(size_t shard_index);
  void RunIngestJob(size_t shard_index, Job& job);
  /// Queues `fn` on shard `shard_index` (which must exist) as a control
  /// job; the future yields its Status, or FailedPrecondition when the
  /// service is stopping.
  std::future<Status> PostToShard(size_t shard_index,
                                  std::function<Status()> fn);
  /// Runs `fn` on shard `shard_index` and waits for it.
  Status RunOnShard(size_t shard_index, std::function<Status()> fn);
  /// Reopens `name` from disk and adds it; runs on the owning shard.
  Status OpenOnShard(const std::string& name, size_t shard);
  void AddTenant(const std::string& name, size_t shard,
                 std::unique_ptr<Tenant> tenant);
  TenantRuntime MakeRuntime() const;
  std::string TenantDir(const std::string& name) const;
  double NowSeconds() const;

  ShardServiceOptions options_;
  obs::MetricsRegistry owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  double recovery_seconds_ = 0.0;
  size_t recovered_tenants_ = 0;

  mutable std::mutex mu_;  // tenant map
  std::unordered_map<std::string, Entry> tenants_;

  bool stopped_ = false;
};

}  // namespace nidc::shard

#endif  // NIDC_SHARD_SERVICE_H_
