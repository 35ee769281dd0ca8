#include "nidc/repl/replica.h"

#include <algorithm>
#include <chrono>

#include "nidc/util/logging.h"

namespace nidc::repl {

namespace {

std::string NeedsSnapshot(const std::string& why) {
  return "replica needs snapshot catch-up: " + why;
}

}  // namespace

ReplicaClusterer::ReplicaClusterer(const Corpus* corpus,
                                   ForgettingParams params,
                                   IncrementalOptions options,
                                   ReplicaOptions replica)
    : corpus_(corpus),
      params_(params),
      options_(options),
      replica_(std::move(replica)) {}

Result<std::unique_ptr<ReplicaClusterer>> ReplicaClusterer::Open(
    const Corpus* corpus, ForgettingParams params,
    IncrementalOptions options, ReplicaOptions replica) {
  if (replica.dir.empty()) {
    return Status::InvalidArgument("ReplicaOptions::dir is required");
  }
  if (replica.keep_generations == 0) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  NIDC_RETURN_NOT_OK(params.Validate());
  Env* env = replica.env != nullptr ? replica.env : Env::Default();
  replica.env = env;
  NIDC_RETURN_NOT_OK(env->CreateDir(replica.dir));
  if (Result<std::vector<std::string>> names = env->ListDir(replica.dir);
      names.ok()) {
    for (const std::string& name : *names) {
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        env->RemoveFile(replica.dir + "/" + name);
      }
    }
  }

  std::unique_ptr<ReplicaClusterer> out(
      new ReplicaClusterer(corpus, params, options, std::move(replica)));

  // Recover the newest valid generation through the same policy as the
  // leader, but stay on it: the follower's watermark must keep naming the
  // leader's generation so re-shipped frames line up after a restart.
  for (uint64_t generation :
       ListRecoveryCandidates(env, out->replica_.dir)) {
    const std::string snapshot_path =
        out->replica_.dir + "/" + SnapshotFileName(generation);
    Result<ClustererState> state = LoadState(snapshot_path, env);
    Result<std::unique_ptr<IncrementalClusterer>> restored =
        state.ok() ? RestoreClusterer(corpus, options, *state)
                   : Result<std::unique_ptr<IncrementalClusterer>>(
                         state.status());
    if (!restored.ok()) {
      NIDC_LOG(Warning) << "replica generation " << generation
                        << " unusable (" << restored.status().ToString()
                        << "); falling back";
      continue;
    }
    out->inner_ = std::move(restored).value();
    out->generation_ = generation;

    const std::string wal_path =
        out->replica_.dir + "/" + WalFileName(generation);
    std::vector<std::string> applied;
    bool torn = false;
    if (env->FileExists(wal_path)) {
      Result<WalReadResult> wal = ReadWal(env, wal_path);
      if (!wal.ok()) return wal.status();
      torn = !wal->clean;
      if (torn) {
        NIDC_LOG(Warning) << "replica WAL " << wal_path << ": " << wal->error
                          << " (" << wal->dropped_bytes
                          << " bytes quarantined)";
      }
      for (const std::string& payload : wal->records) {
        Result<WalStepRecord> record = DecodeStepRecord(payload);
        if (!record.ok()) {
          torn = true;
          NIDC_LOG(Warning) << "quarantining undecodable replica record: "
                            << record.status().ToString();
          break;
        }
        Result<StepResult> stepped =
            out->inner_->Step(record->new_docs, record->tau);
        if (!stepped.ok() &&
            stepped.status().code() != StatusCode::kFailedPrecondition) {
          torn = true;
          NIDC_LOG(Warning) << "quarantining unreplayable replica record: "
                            << stepped.status().ToString();
          break;
        }
        applied.push_back(payload);
      }
    }
    if (torn) {
      // Rewrite the WAL down to the replayed prefix so sequence numbers
      // and on-disk bytes agree again before appends continue.
      NIDC_RETURN_NOT_OK(RewriteWal(env, wal_path, applied));
    }
    if (applied.empty() || !env->FileExists(wal_path)) {
      // A WAL with no records may have lost its unsynced header too:
      // start it afresh rather than append frames to a headerless file.
      auto wal = WalWriter::Create(env, wal_path, out->replica_.wal_sync);
      if (!wal.ok()) return wal.status();
      out->wal_ = std::move(wal).value();
    } else {
      auto wal = OpenWalForAppend(env, wal_path, out->replica_.wal_sync,
                                  applied.size());
      if (!wal.ok()) return wal.status();
      out->wal_ = std::move(wal).value();
    }
    out->applied_sequence_ = applied.size();
    break;
  }

  if (out->inner_ == nullptr) {
    // Fresh follower: no committed base yet (generation 0 carries no WAL);
    // the first shipped snapshot or seal-at-zero establishes one.
    out->inner_ =
        std::make_unique<IncrementalClusterer>(corpus, params, options);
  }
  out->last_frame_seconds_ = out->NowSeconds();
  return out;
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
  if (frame.generation < generation_ ||
      (frame.generation == generation_ && wal_ != nullptr)) {
    // An older base — or the base we already hold — re-shipped after a
    // reconnect. Installing it would rewind applied records.
    ++counters_.stale_frames;
    BumpLocked("repl.follower.stale_frames");
    return Status::OK();
  }
  Result<ClustererState> state = ParseState(frame.payload);
  if (!state.ok()) return state.status();
  Result<std::unique_ptr<IncrementalClusterer>> restored =
      RestoreClusterer(corpus_, options_, *state);
  if (!restored.ok()) return restored.status();
  // Disk first, memory second: a crash between the two recovers the
  // just-installed snapshot, never a model with no on-disk base.
  NIDC_RETURN_NOT_OK(CommitGenerationLocked(frame.generation, frame.payload));
  inner_ = std::move(restored).value();
  generation_ = frame.generation;
  applied_sequence_ = 0;
  ++counters_.snapshots_installed;
  BumpLocked("repl.follower.snapshots_installed");
  return Status::OK();
}

Status ReplicaClusterer::ApplyWalRecordLocked(const ReplFrame& frame) {
  if (frame.generation < generation_) {
    ++counters_.stale_frames;
    BumpLocked("repl.follower.stale_frames");
    return Status::OK();
  }
  if (frame.generation > generation_ || wal_ == nullptr) {
    ++counters_.record_gaps;
    BumpLocked("repl.follower.record_gaps");
    return Status::FailedPrecondition(NeedsSnapshot(
        "record for generation " + std::to_string(frame.generation) +
        " but replica base is generation " + std::to_string(generation_)));
  }
  if (frame.sequence <= applied_sequence_) {
    ++counters_.records_skipped;
    BumpLocked("repl.follower.records_skipped");
    return Status::OK();
  }
  if (frame.sequence != applied_sequence_ + 1) {
    ++counters_.record_gaps;
    BumpLocked("repl.follower.record_gaps");
    return Status::FailedPrecondition(NeedsSnapshot(
        "record sequence " + std::to_string(frame.sequence) +
        " but replica applied " + std::to_string(applied_sequence_)));
  }
  // Decode before persisting: an unintelligible record must not enter the
  // local WAL, where restart replay would quarantine it and everything
  // after it.
  Result<WalStepRecord> record = DecodeStepRecord(frame.payload);
  if (!record.ok()) return record.status();
  NIDC_RETURN_NOT_OK(wal_->AppendRecord(frame.payload));
  Result<StepResult> stepped = inner_->Step(record->new_docs, record->tau);
  if (!stepped.ok() &&
      stepped.status().code() != StatusCode::kFailedPrecondition) {
    // The leader logged and shipped this record, so it applied there; a
    // failure here means the replica diverged. Storage and memory no
    // longer agree — the instance must be reopened.
    return Status::IOError("replica diverged applying shipped record: " +
                           stepped.status().ToString());
  }
  ++applied_sequence_;
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
  if (frame.generation < generation_) {
    ++counters_.stale_frames;
    BumpLocked("repl.follower.stale_frames");
    return Status::OK();
  }
  if (frame.generation > generation_ ||
      frame.sequence != applied_sequence_ ||
      frame.leader_steps != inner_->step_count()) {
    ++counters_.record_gaps;
    BumpLocked("repl.follower.record_gaps");
    return Status::FailedPrecondition(NeedsSnapshot(
        "seal of generation " + std::to_string(frame.generation) + " at " +
        std::to_string(frame.sequence) + " records / " +
        std::to_string(frame.leader_steps) + " steps, but replica is at (" +
        std::to_string(generation_) + ", " +
        std::to_string(applied_sequence_) + ", " +
        std::to_string(inner_->step_count()) + ")"));
  }
  // Exactly at the sealed watermark: rotate locally. The snapshot written
  // here is bit-identical to the one the leader wrote for the same
  // generation, because both serialize the same deterministic state — so
  // generations advance in lockstep without shipping state.
  const std::string state = SerializeState(CaptureState(*inner_));
  NIDC_RETURN_NOT_OK(CommitGenerationLocked(frame.generation + 1, state));
  generation_ = frame.generation + 1;
  applied_sequence_ = 0;
  ++counters_.local_rotations;
  BumpLocked("repl.follower.local_rotations");
  return Status::OK();
}

Status ReplicaClusterer::CommitGenerationLocked(uint64_t generation,
                                                const std::string& state) {
  Env* env = replica_.env;
  const std::string snapshot_name = SnapshotFileName(generation);
  const std::string wal_name = WalFileName(generation);
  // Same commit order as DurableClusterer::Rotate: snapshot, fresh WAL,
  // manifest flip. A crash in between recovers the previous generation.
  NIDC_RETURN_NOT_OK(AtomicWriteFile(env, replica_.dir + "/" + snapshot_name,
                                     state));
  if (wal_ != nullptr) {
    wal_->Close();
  }
  auto wal = WalWriter::Create(env, replica_.dir + "/" + wal_name,
                               replica_.wal_sync);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();

  Manifest manifest;
  manifest.generation = generation;
  manifest.snapshot_file = snapshot_name;
  manifest.wal_file = wal_name;
  NIDC_RETURN_NOT_OK(WriteManifest(env, replica_.dir, manifest));

  if (Result<std::vector<uint64_t>> generations =
          ListSnapshotGenerations(env, replica_.dir);
      generations.ok()) {
    for (uint64_t old : *generations) {
      if (old + replica_.keep_generations <= generation) {
        env->RemoveFile(replica_.dir + "/" + SnapshotFileName(old));
        env->RemoveFile(replica_.dir + "/" + WalFileName(old));
      }
    }
  }
  return Status::OK();
}

ReplFrame ReplicaClusterer::HelloFrame() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplFrame hello;
  hello.type = FrameType::kHello;
  hello.generation = generation_;
  hello.sequence = applied_sequence_;
  hello.leader_steps = inner_->step_count();
  return hello;
}

ReplicaStats ReplicaClusterer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaStats stats = counters_;
  stats.generation = generation_;
  stats.applied_sequence = applied_sequence_;
  stats.applied_steps = inner_->step_count();
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
  return inner_->step_count();
}

Result<std::unique_ptr<DurableClusterer>> ReplicaClusterer::Promote(
    DurableOptions durable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition("replica clusterer is closed");
  }
  // Seal the tail so everything applied so far survives the flip, then
  // reopen the directory through the leader's own (crash-tortured)
  // recovery path. Open() starts a fresh generation, so the new leader's
  // writes never touch files this replica's recovery might fall back to.
  if (wal_ != nullptr) {
    NIDC_RETURN_NOT_OK(wal_->Sync());
    NIDC_RETURN_NOT_OK(wal_->Close());
    wal_ = nullptr;
  }
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
  Status st = Status::OK();
  if (wal_ != nullptr) {
    st = wal_->Sync();
    const Status closed = wal_->Close();
    if (st.ok()) st = closed;
    wal_ = nullptr;
  }
  closed_ = true;
  return st;
}

ReplicaClusterer::~ReplicaClusterer() { Close(); }

void ReplicaClusterer::BumpLocked(const char* name, uint64_t delta) {
  if (replica_.metrics != nullptr) {
    replica_.metrics->GetCounter(name)->Increment(delta);
  }
}

void ReplicaClusterer::NoteFrameLocked(const ReplFrame& frame) {
  leader_steps_ = std::max(leader_steps_, frame.leader_steps);
  last_frame_seconds_ = NowSeconds();
  if (replica_.metrics != nullptr) {
    const uint64_t steps = inner_ != nullptr ? inner_->step_count() : 0;
    replica_.metrics->GetGauge("repl.follower.lag_records")
        ->Set(leader_steps_ > steps
                  ? static_cast<double>(leader_steps_ - steps)
                  : 0.0);
    replica_.metrics->GetGauge("repl.follower.generation")
        ->Set(static_cast<double>(generation_));
  }
}

double ReplicaClusterer::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nidc::repl
