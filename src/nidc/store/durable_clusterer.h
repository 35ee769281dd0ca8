// Crash-safe wrapper around IncrementalClusterer (the tentpole of the
// store/ durability subsystem).
//
// Persistence protocol:
//   * Every Step is first appended to the current generation's write-ahead
//     log (wal.h) — tau + new document ids, CRC-framed — and only then
//     applied in memory. Under WalSyncMode::kEveryRecord the record is
//     fsynced before the step runs, so a completed step is never lost.
//   * Every `checkpoint_every` steps the wrapper rotates to a new
//     generation: it writes a bit-exact ClustererState snapshot
//     (write-temp + fsync + rename), starts a fresh WAL (its header is
//     not synced; the first record's sync covers it), atomically
//     updates the MANIFEST, and prunes generations beyond
//     `keep_generations`.
//   * A fresh directory starts generation 1 with no snapshot and no
//     MANIFEST: its base is the empty state built from `params`, so Open
//     only creates wal-000001, and the generation's first record syncs
//     the directory so that file's entry is durable.
//   * A store whose owner logs documents (LogCorpus, shard tenants) also
//     appends corpus records (corpus/corpus_io.h) to the same WAL: each
//     holds the terms and analyzed documents the corpus gained since the
//     last one, ahead of any step record that names them. They share the
//     append path but not the sync: the next step record's fsync covers
//     a corpus record, or SyncCorpus does. They do not count toward
//     `checkpoint_every`. Once such a store has logged or restored a
//     corpus record, each snapshot it writes is a two-record log (wal.h
//     framing): the state text, then a corpus record of the whole
//     vocabulary and every retained document.
//   * After a step has run, its clustering is appended to the
//     generation's outcome log (outcome-<gen>, created at the
//     generation's first step): the WAL's CRC framing around the
//     snapshot's result section, keyed by step index, the bits of tau
//     and a CRC-32C of the new document ids. The log is a hint. It is
//     flushed to the OS after each record but never fsynced.
//   * Open() (and OpenFollower()) recovers: newest valid snapshot
//     (manifest first, directory scan as fallback, generation 1's
//     implicit base last whenever wal-000001 exists) + replay of that
//     generation's WAL tail. A snapshot's corpus record is installed
//     into the (then empty) corpus before the state is restored, and the
//     tail's corpus records in WAL order between its steps. A replayed
//     step whose outcome is in the log and fits the active set installs
//     it instead of re-running K-means; a missing, damaged or mismatched
//     outcome means the step re-runs. Corrupt WAL tails are quarantined —
//     valid records before the damage still replay, and a record that
//     does not decode or does not follow the state ends the replay — and
//     a corrupt snapshot falls back to the previous generation, from an
//     empty corpus again if the failed one had installed into it,
//     instead of failing startup.
//
// A follower's store (OpenFollower, driven by repl::ReplicaClusterer) is
// fed the leader's commit stream through ApplyRecord, InstallSnapshot and
// Checkpoint, and never rotates by itself.
//
// Because snapshots carry the model's ExactModelState, recovery is
// *bit-identical*: a recovered clusterer fed the rest of the stream
// produces exactly the clustering an uninterrupted run would have
// produced. tools/nidc_crash_torture kills the I/O layer at every
// injected fault point and asserts precisely that.
//
// Error contract: a Status with code kIOError means the storage layer is
// in an unknown state — discard the instance and recover via Open(). Any
// other error (e.g. FailedPrecondition when no documents are active)
// leaves the instance consistent and usable.

#ifndef NIDC_STORE_DURABLE_CLUSTERER_H_
#define NIDC_STORE_DURABLE_CLUSTERER_H_

#include <memory>
#include <string>

#include "nidc/core/state_io.h"
#include "nidc/store/manifest.h"
#include "nidc/store/wal.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/reqtrace.h"

namespace nidc {

/// Observer of the durability layer's commit points, the attachment point
/// for WAL shipping (src/nidc/repl/). Callbacks run on the Step thread
/// *after* the corresponding bytes are durably on local storage, so a
/// sink never observes a record the leader could lose in a crash it
/// survives. Implementations must not fail the step path: a follower
/// outage degrades replication (queueing, drop-oldest, snapshot
/// catch-up), never ingest.
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;

  /// One WAL record was appended (and fsynced, under kEveryRecord).
  /// `sequence` is 1-based within `generation`; `leader_steps` is the
  /// total step count once this record is applied.
  virtual void OnWalRecord(uint64_t generation, uint64_t sequence,
                           uint64_t leader_steps,
                           std::string_view payload) = 0;

  /// A checkpoint rotation committed: generation `generation` is now
  /// current, its base state is `snapshot` (serialized ClustererState),
  /// and the previous generation's WAL was sealed at `sealed_records`
  /// records.
  virtual void OnRotate(uint64_t generation, uint64_t sealed_records,
                        uint64_t leader_steps,
                        const std::string& snapshot) = 0;
};

/// Configuration of the durability wrapper.
struct DurableOptions {
  /// Checkpoint directory (created if missing). Required.
  std::string dir;

  /// Steps between snapshot rotations.
  uint64_t checkpoint_every = 16;

  /// WAL fsync policy (see WalSyncMode). kNone trades the tail since the
  /// last checkpoint for throughput; recovery still yields a consistent,
  /// merely older, state.
  WalSyncMode wal_sync = WalSyncMode::kEveryRecord;

  /// Newest generations kept on disk; older snapshot/WAL pairs are pruned
  /// after a successful rotation. Must be >= 1.
  uint64_t keep_generations = 2;

  /// Filesystem to operate on; null selects Env::Default(). Tests inject
  /// a FaultInjectionEnv here.
  Env* env = nullptr;

  /// Recovery / IO counters ("store.*"); null falls back to the inner
  /// IncrementalOptions::metrics, and disables them when that is null too.
  obs::MetricsRegistry* metrics = nullptr;

  /// Replication hook; null disables shipping. Must outlive the
  /// clusterer. See ReplicationSink for the callback contract.
  ReplicationSink* sink = nullptr;

  /// Request tracer; null disables stage stamping. Step stamps the
  /// wal_commit / step / checkpoint stages for the traces the caller
  /// scoped onto the thread (RequestTracer::StepScope) — a pure
  /// side-channel off the deterministic clustering path.
  obs::RequestTracer* tracer = nullptr;
};

/// What Open() found and did while recovering.
struct RecoveryInfo {
  /// True when a previous generation was loaded (false = fresh start).
  bool resumed = false;
  /// Generation recovered from (meaningful when resumed).
  uint64_t source_generation = 0;
  /// Generation started for new writes.
  uint64_t new_generation = 0;
  /// WAL records replayed through Step() during recovery.
  uint64_t replayed_records = 0;
  /// Replayed records that installed their logged outcome instead of
  /// re-running K-means (a subset of replayed_records).
  uint64_t installed_records = 0;
  /// Damaged WAL bytes dropped after the last valid record.
  uint64_t dropped_wal_bytes = 0;
  /// Records that were framed correctly but could not be applied
  /// (undecodable payload, rejected by Step, or a corpus record that does
  /// not follow the corpus); they and everything after them are skipped.
  uint64_t quarantined_records = 0;
  /// Candidate generations skipped because their snapshot (or restore)
  /// was invalid.
  uint64_t snapshot_fallbacks = 0;
  /// Model clock after recovery.
  DayTime recovered_now = 0.0;
};

/// Payload of one outcome-log record: a header line keying the step — its
/// 0-based index, the bits of `tau` and a CRC-32C of `new_docs` — followed
/// by `clustering` in the snapshot's result-section form (state_io.h).
std::string EncodeStepOutcome(uint64_t step, DayTime tau,
                              const std::vector<DocId>& new_docs,
                              const ClusteringResult& clustering);

class DurableClusterer {
 public:
  /// Opens (and if necessary creates) the checkpoint directory, recovers
  /// the newest valid state, and starts a fresh generation. When a
  /// snapshot is recovered its persisted ForgettingParams take precedence
  /// over `params` (matching `nidc_cli --state` resume semantics). A store
  /// that logs documents restores them into `corpus`, which must then be
  /// empty; any other store only reads it.
  static Result<std::unique_ptr<DurableClusterer>> Open(
      Corpus* corpus, ForgettingParams params, IncrementalOptions options,
      DurableOptions durable);

  /// Opens a follower's store: Open's recovery, but it stays on the
  /// recovered generation, whose WAL it cuts back to the replayed prefix
  /// (or starts afresh) and reopens for append. A fresh directory yields
  /// generation 0 with no WAL until a snapshot or seal establishes one.
  /// It never rotates at `checkpoint_every` or Close.
  static Result<std::unique_ptr<DurableClusterer>> OpenFollower(
      Corpus* corpus, ForgettingParams params, IncrementalOptions options,
      DurableOptions durable);

  /// Logs the step to the WAL, applies it, and rotates the checkpoint
  /// when due. See the class comment for the error contract.
  Result<StepResult> Step(const std::vector<DocId>& new_docs, DayTime tau);

  /// Logs the terms and documents the corpus gained since the store last
  /// logged, restored or snapshotted it, as one corpus record, unsynced:
  /// the next step record's sync covers it, or SyncCorpus does. Those
  /// documents must still be retained.
  Status LogCorpus();

  /// Under kEveryRecord, syncs the WAL when it ends in a corpus record no
  /// step record has synced; otherwise does nothing.
  Status SyncCorpus();

  /// A follower's Step: logs a shipped WAL record payload verbatim and
  /// applies it through Step's path. Undecodable payloads are refused.
  Result<StepResult> ApplyRecord(std::string_view payload);

  /// A follower's snapshot install: commits `snapshot` (a serialized
  /// ClustererState) as generation `generation` through Rotate's commit,
  /// snapshot file included, then resumes from it.
  Status InstallSnapshot(uint64_t generation, const std::string& snapshot);

  /// Forces a snapshot rotation now.
  Status Checkpoint();

  /// Final checkpoint + WAL close (a follower syncs its WAL instead of
  /// rotating). The destructor calls this (ignoring errors); call it
  /// explicitly to observe failures.
  Status Close();

  ~DurableClusterer();

  /// Steps applied to the in-memory clusterer so far, counting those
  /// accounted by the recovered snapshot and WAL replay. A driver that
  /// feeds a deterministic batch sequence resumes at this index.
  uint64_t applied_steps() const { return inner_->step_count(); }

  /// Snapshot generation currently being written (the durability lag
  /// trio below feeds /healthz: records since the last checkpoint out of
  /// `checkpoint_every` is how much stream the next crash would replay).
  uint64_t generation() const { return generation_; }

  /// WAL records appended since the last checkpoint rotation.
  uint64_t wal_records_since_checkpoint() const {
    return records_since_checkpoint_;
  }

  /// The configured rotation cadence (DurableOptions::checkpoint_every).
  uint64_t checkpoint_every() const { return durable_.checkpoint_every; }

  const RecoveryInfo& recovery() const { return recovery_; }
  const IncrementalClusterer& clusterer() const { return *inner_; }
  IncrementalClusterer& clusterer() { return *inner_; }
  const std::optional<ClusteringResult>& last_result() const {
    return inner_->last_result();
  }

 private:
  DurableClusterer(std::unique_ptr<IncrementalClusterer> inner,
                   DurableOptions durable, obs::MetricsRegistry* metrics)
      : inner_(std::move(inner)),
        durable_(std::move(durable)),
        metrics_(metrics) {}

  /// The recovery Open and OpenFollower share.
  static Result<std::unique_ptr<DurableClusterer>> Recover(
      Corpus* corpus, ForgettingParams params, IncrementalOptions options,
      DurableOptions durable, bool follower);

  /// Commits the current state as generation `generation_+1`. Generation
  /// 1 only gets its WAL (see the class comment).
  Status Rotate();

  /// Makes `generation` current with base state `snapshot`: writes the
  /// snapshot, switches the WAL, flips the manifest (neither file when
  /// `implicit`) and prunes old generations.
  Status CommitGeneration(uint64_t generation, const std::string& snapshot,
                          bool implicit);

  /// Appends one record, step or corpus, with generation 1's directory
  /// sync at its first record, and counts it.
  Status AppendToWal(std::string_view payload, bool sync);

  /// Step's body once `payload` encodes (`new_docs`, `tau`).
  Result<StepResult> StepLogged(std::string_view payload,
                                const std::vector<DocId>& new_docs,
                                DayTime tau);

  /// Appends a completed step's outcome to the generation's outcome log,
  /// creating the log at the generation's first step. A failure stops
  /// logging until the next rotation and never fails the step: recovery
  /// then re-runs the steps that lack an outcome.
  void LogOutcome(uint64_t step, DayTime tau,
                  const std::vector<DocId>& new_docs,
                  const ClusteringResult& clustering);

  void BumpCounter(const char* name, uint64_t delta = 1);

  std::unique_ptr<IncrementalClusterer> inner_;
  DurableOptions durable_;
  obs::MetricsRegistry* metrics_;
  RecoveryInfo recovery_;
  std::unique_ptr<WalWriter> wal_;
  /// The current generation's outcome log; null until its first step.
  std::unique_ptr<WalWriter> outcomes_;
  /// Set when an outcome append failed; cleared by the next rotation.
  bool outcomes_failed_ = false;
  uint64_t generation_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  /// Set while the first generation's WAL entry awaits a directory sync.
  bool sync_dir_at_next_record_ = false;
  /// Set once this store has logged or restored a corpus record: its
  /// snapshots then carry the live window.
  bool logs_corpus_ = false;
  /// Vocabulary size and document count the log and snapshots cover.
  size_t logged_terms_ = 0;
  size_t logged_docs_ = 0;
  /// Set while the WAL ends in a corpus record that awaits its sync.
  bool corpus_unsynced_ = false;
  /// Set by OpenFollower: rotations come only from Checkpoint.
  bool follower_ = false;
  bool closed_ = false;
};

}  // namespace nidc

#endif  // NIDC_STORE_DURABLE_CLUSTERER_H_
