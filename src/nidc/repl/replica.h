// Follower-side replica: sequences shipped frames into a follower's
// DurableClusterer (DurableClusterer::OpenFollower), with
// promote-on-failure.
//
// The follower *is* a store, in the store/ directory format, on the
// leader's generation numbering. Each frame maps onto one store call:
//
//   * kSnapshot(G) -> InstallSnapshot: the generation commit Rotate uses.
//   * kWalRecord(G, s) with s == applied+1 -> ApplyRecord: Step's path
//     (validate, WAL first, apply, log the outcome). s <= applied is
//     skipped idempotently — re-shipped frames after a reconnect or a
//     follower restart are harmless. A gap (s > applied+1) or a future
//     generation returns FailedPrecondition: the caller drops the
//     connection and the reconnect handshake triggers catch-up.
//   * kSeal(G, n) with the replica sitting exactly at (G, n) ->
//     Checkpoint: the replica writes its *own* snapshot (bit-identical to
//     the leader's at the same step) and advances to generation G+1
//     without shipping the state again.
//
// A restarted follower recovers through the leader's path but stays on
// the recovered generation and resumes at its watermark; it truncates
// that generation's outcome log (only a hint) at its next record.
//
// Promote() seals the WAL tail and reopens the directory through
// DurableClusterer::Open: the replica directory becomes a leader
// checkpoint directory whose recovery installs the follower's logged
// outcomes instead of re-running K-means.
//
// Apply() and stats() are thread-safe (one mutex): a transport thread
// applies frames while an introspection server renders lag.

#ifndef NIDC_REPL_REPLICA_H_
#define NIDC_REPL_REPLICA_H_

#include <memory>
#include <mutex>
#include <string>

#include "nidc/repl/wire.h"
#include "nidc/store/durable_clusterer.h"

namespace nidc::repl {

struct ReplicaOptions {
  /// Replica checkpoint directory (created if missing). Required.
  std::string dir;

  /// WAL fsync policy for locally persisted records.
  WalSyncMode wal_sync = WalSyncMode::kEveryRecord;

  /// Newest generations kept on disk after a local rotation.
  uint64_t keep_generations = 2;

  /// Filesystem; null selects Env::Default(). Tests inject a
  /// FaultInjectionEnv to kill the replay path mid-catch-up.
  Env* env = nullptr;

  /// "repl.*" follower counters/gauges; null disables them.
  obs::MetricsRegistry* metrics = nullptr;

  /// Request tracer; null disables stage stamping. A successful record
  /// apply stamps the apply stage for the traces the (in-process)
  /// leader's shipper registered under the same (generation, sequence)
  /// watermark; a cross-process follower has no registrations and the
  /// stamp is a no-op.
  obs::RequestTracer* tracer = nullptr;
};

/// Follower watermark + lag snapshot (all fields are consistent with each
/// other; rendered by /healthz and /statusz on a serving follower).
struct ReplicaStats {
  uint64_t generation = 0;
  /// Applied WAL records within the current generation.
  uint64_t applied_sequence = 0;
  /// Total steps applied to the in-memory clusterer.
  uint64_t applied_steps = 0;
  /// Leader head (leader_steps of the newest frame seen; 0 before any).
  uint64_t leader_steps = 0;
  /// max(leader_steps - applied_steps, 0): records the follower still
  /// needs to see to match the leader's head.
  uint64_t lag_records = 0;
  /// Seconds since the last frame arrived (since Open before any).
  double last_frame_age_seconds = 0.0;
  uint64_t records_applied = 0;
  uint64_t records_skipped = 0;
  uint64_t stale_frames = 0;
  uint64_t record_gaps = 0;
  uint64_t snapshots_installed = 0;
  uint64_t local_rotations = 0;
};

class ReplicaClusterer {
 public:
  /// Opens (creating if needed) the replica directory and recovers the
  /// newest valid state, staying on the recovered generation. A fresh
  /// directory starts empty at generation 0 — the first shipped snapshot
  /// establishes the base.
  static Result<std::unique_ptr<ReplicaClusterer>> Open(
      Corpus* corpus, ForgettingParams params,
      IncrementalOptions options, ReplicaOptions replica);

  /// Applies one shipped frame. Returns:
  ///   OK                 — applied, or idempotently skipped;
  ///   FailedPrecondition — the frame cannot be applied from this
  ///                        watermark (record gap, future generation,
  ///                        mismatched seal): drop the connection and let
  ///                        the reconnect handshake catch up;
  ///   IOError            — replica storage is in an unknown state, or
  ///                        the replica refused a record the leader
  ///                        applied: discard the instance and recover via
  ///                        Open().
  Status Apply(const ReplFrame& frame);

  /// The HELLO watermark for the reconnect handshake.
  ReplFrame HelloFrame() const;

  ReplicaStats stats() const;

  /// Steps applied to the in-memory clusterer (snapshot base + replayed
  /// records). A promoted follower resumes a deterministic feed here.
  uint64_t applied_steps() const;

  /// Read-only view of the replayed model (for follower-side /statusz).
  const IncrementalClusterer* clusterer() const {
    return &store_->clusterer();
  }

  /// Seals the WAL tail (sync + close) and flips the directory into a
  /// writable leader via DurableClusterer::Open. The replica instance is
  /// consumed: after a successful promote it must be discarded. `durable`
  /// supplies the leader-side knobs (checkpoint cadence, sink for
  /// onward-shipping chains); its dir/env default to the replica's own.
  Result<std::unique_ptr<DurableClusterer>> Promote(DurableOptions durable);

  Status Close();
  ~ReplicaClusterer();

 private:
  ReplicaClusterer(Corpus* corpus, ForgettingParams params,
                   IncrementalOptions options, ReplicaOptions replica,
                   std::unique_ptr<DurableClusterer> store);

  Status ApplySnapshotLocked(const ReplFrame& frame);
  Status ApplyWalRecordLocked(const ReplFrame& frame);
  Status ApplySealLocked(const ReplFrame& frame);
  /// Counts a frame older than the watermark, which is skipped (OK).
  Status StaleLocked();
  /// Counts a frame the watermark cannot reach and refuses it
  /// (FailedPrecondition, so the session re-syncs).
  Status GapLocked(const std::string& why);
  void BumpLocked(const char* name, uint64_t delta = 1);
  void NoteFrameLocked(const ReplFrame& frame);
  double NowSeconds() const;

  Corpus* corpus_;
  ForgettingParams params_;
  IncrementalOptions options_;
  ReplicaOptions replica_;

  mutable std::mutex mu_;
  /// The follower's store; its generation and WAL record count are the
  /// watermark.
  std::unique_ptr<DurableClusterer> store_;
  uint64_t leader_steps_ = 0;
  double last_frame_seconds_ = 0.0;
  bool closed_ = false;
  ReplicaStats counters_;
};

}  // namespace nidc::repl

#endif  // NIDC_REPL_REPLICA_H_
