#include "nidc/repl/replica.h"

#include <algorithm>
#include <chrono>

namespace nidc::repl {

ReplicaClusterer::ReplicaClusterer(Corpus* corpus,
                                   ForgettingParams params,
                                   IncrementalOptions options,
                                   ReplicaOptions replica,
                                   std::unique_ptr<DurableClusterer> store)
    : corpus_(corpus),
      params_(params),
      options_(std::move(options)),
      replica_(std::move(replica)),
      store_(std::move(store)),
      last_frame_seconds_(NowSeconds()) {}

Result<std::unique_ptr<ReplicaClusterer>> ReplicaClusterer::Open(
    Corpus* corpus, ForgettingParams params,
    IncrementalOptions options, ReplicaOptions replica) {
  DurableOptions durable;
  durable.dir = replica.dir;
  durable.wal_sync = replica.wal_sync;
  durable.keep_generations = replica.keep_generations;
  durable.env = replica.env;
  durable.metrics = replica.metrics;
  // No sink and no tracer: an in-process link applies frames on the
  // leader's thread, inside the leader's StepScope, where a tracer would
  // stamp wal_commit/step a second time.
  Result<std::unique_ptr<DurableClusterer>> store =
      DurableClusterer::OpenFollower(corpus, params, options,
                                     std::move(durable));
  if (!store.ok()) return store.status();
  return std::unique_ptr<ReplicaClusterer>(
      new ReplicaClusterer(corpus, params, std::move(options),
                           std::move(replica), std::move(store).value()));
}

Status ReplicaClusterer::Apply(const ReplFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition("replica clusterer is closed");
  }
  NoteFrameLocked(frame);
  switch (frame.type) {
    case FrameType::kHeartbeat:
      return Status::OK();
    case FrameType::kSnapshot:
      return ApplySnapshotLocked(frame);
    case FrameType::kWalRecord:
      return ApplyWalRecordLocked(frame);
    case FrameType::kSeal:
      return ApplySealLocked(frame);
    case FrameType::kHello:
      return Status::InvalidArgument(
          "hello frames flow follower -> leader only");
  }
  return Status::InvalidArgument("unhandled replication frame type");
}

Status ReplicaClusterer::ApplySnapshotLocked(const ReplFrame& frame) {
  if (frame.generation <= store_->generation()) {
    // An older base — or the base we already hold — re-shipped after a
    // reconnect. Installing it would rewind applied records.
    return StaleLocked();
  }
  NIDC_RETURN_NOT_OK(store_->InstallSnapshot(frame.generation, frame.payload));
  ++counters_.snapshots_installed;
  BumpLocked("repl.follower.snapshots_installed");
  return Status::OK();
}

Status ReplicaClusterer::ApplyWalRecordLocked(const ReplFrame& frame) {
  const uint64_t generation = store_->generation();
  const uint64_t applied = store_->wal_records_since_checkpoint();
  if (frame.generation < generation) {
    return StaleLocked();
  }
  if (frame.generation > generation || generation == 0) {
    return GapLocked(
        "record for generation " + std::to_string(frame.generation) +
        " but replica base is generation " + std::to_string(generation));
  }
  if (frame.sequence <= applied) {
    ++counters_.records_skipped;
    BumpLocked("repl.follower.records_skipped");
    return Status::OK();
  }
  if (frame.sequence != applied + 1) {
    return GapLocked(
        "record sequence " + std::to_string(frame.sequence) +
        " but replica applied " + std::to_string(applied));
  }
  Result<StepResult> stepped = store_->ApplyRecord(frame.payload);
  if (!stepped.ok() &&
      stepped.status().code() != StatusCode::kFailedPrecondition) {
    if (stepped.status().code() == StatusCode::kIOError) {
      return stepped.status();
    }
    // The leader logged and applied this record, so a refusal here means
    // the replica diverged: the instance must be reopened.
    return Status::IOError("replica diverged applying shipped record: " +
                           stepped.status().ToString());
  }
  ++counters_.records_applied;
  BumpLocked("repl.follower.records_applied");
  if (replica_.tracer != nullptr) {
    // Stamps the apply stage for whichever traces the leader's shipper
    // registered under this watermark (in-process only; the tracer has
    // its own lock and never calls back into the replica).
    replica_.tracer->RecordApplied(frame.generation, frame.sequence);
  }
  return Status::OK();
}

Status ReplicaClusterer::ApplySealLocked(const ReplFrame& frame) {
  const uint64_t generation = store_->generation();
  const uint64_t applied = store_->wal_records_since_checkpoint();
  if (frame.generation < generation) {
    return StaleLocked();
  }
  if (frame.generation > generation || frame.sequence != applied ||
      frame.leader_steps != store_->applied_steps()) {
    return GapLocked(
        "seal of generation " + std::to_string(frame.generation) + " at " +
        std::to_string(frame.sequence) + " records / " +
        std::to_string(frame.leader_steps) + " steps, but replica is at (" +
        std::to_string(generation) + ", " + std::to_string(applied) + ", " +
        std::to_string(store_->applied_steps()) + ")");
  }
  // Exactly at the sealed watermark: checkpoint locally. The snapshot
  // written here is bit-identical to the one the leader wrote for the
  // same generation, because both serialize the same deterministic state
  // — so generations advance in lockstep without shipping state.
  NIDC_RETURN_NOT_OK(store_->Checkpoint());
  ++counters_.local_rotations;
  BumpLocked("repl.follower.local_rotations");
  return Status::OK();
}

ReplFrame ReplicaClusterer::HelloFrame() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplFrame hello;
  hello.type = FrameType::kHello;
  hello.generation = store_->generation();
  hello.sequence = store_->wal_records_since_checkpoint();
  hello.leader_steps = store_->applied_steps();
  return hello;
}

ReplicaStats ReplicaClusterer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaStats stats = counters_;
  stats.generation = store_->generation();
  stats.applied_sequence = store_->wal_records_since_checkpoint();
  stats.applied_steps = store_->applied_steps();
  stats.leader_steps = leader_steps_;
  stats.lag_records = leader_steps_ > stats.applied_steps
                          ? leader_steps_ - stats.applied_steps
                          : 0;
  stats.last_frame_age_seconds =
      std::max(0.0, NowSeconds() - last_frame_seconds_);
  return stats;
}

uint64_t ReplicaClusterer::applied_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->applied_steps();
}

Result<std::unique_ptr<DurableClusterer>> ReplicaClusterer::Promote(
    DurableOptions durable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition("replica clusterer is closed");
  }
  // Seal the tail so everything applied so far survives the flip, then
  // reopen the directory through the leader's own (crash-tortured)
  // recovery path, which installs the outcomes this follower logged.
  // Open() starts a fresh generation, so the new leader's writes never
  // touch files this replica's recovery might fall back to.
  NIDC_RETURN_NOT_OK(store_->Close());
  closed_ = true;
  if (durable.dir.empty()) durable.dir = replica_.dir;
  if (durable.env == nullptr) durable.env = replica_.env;
  if (durable.metrics == nullptr) durable.metrics = replica_.metrics;
  if (replica_.metrics != nullptr) {
    replica_.metrics->GetCounter("repl.follower.promotions")->Increment();
  }
  return DurableClusterer::Open(corpus_, params_, options_, durable);
}

Status ReplicaClusterer::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  return store_->Close();
}

ReplicaClusterer::~ReplicaClusterer() { Close(); }

Status ReplicaClusterer::StaleLocked() {
  ++counters_.stale_frames;
  BumpLocked("repl.follower.stale_frames");
  return Status::OK();
}

Status ReplicaClusterer::GapLocked(const std::string& why) {
  ++counters_.record_gaps;
  BumpLocked("repl.follower.record_gaps");
  return Status::FailedPrecondition("replica needs snapshot catch-up: " +
                                    why);
}

void ReplicaClusterer::BumpLocked(const char* name, uint64_t delta) {
  if (replica_.metrics != nullptr) {
    replica_.metrics->GetCounter(name)->Increment(delta);
  }
}

void ReplicaClusterer::NoteFrameLocked(const ReplFrame& frame) {
  leader_steps_ = std::max(leader_steps_, frame.leader_steps);
  last_frame_seconds_ = NowSeconds();
  if (replica_.metrics != nullptr) {
    const uint64_t steps = store_->applied_steps();
    replica_.metrics->GetGauge("repl.follower.lag_records")
        ->Set(leader_steps_ > steps
                  ? static_cast<double>(leader_steps_ - steps)
                  : 0.0);
    replica_.metrics->GetGauge("repl.follower.generation")
        ->Set(static_cast<double>(store_->generation()));
  }
}

double ReplicaClusterer::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nidc::repl
