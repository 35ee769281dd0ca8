#include "nidc/store/durable_clusterer.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "nidc/corpus/corpus_io.h"
#include "nidc/obs/event_log.h"
#include "nidc/util/crc32.h"
#include "nidc/util/logging.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/string_util.h"

namespace nidc {

namespace {

// The key line that opens an outcome record. Recovery matches a replayed
// WAL record to its outcome by comparing these lines.
std::string OutcomeHeader(uint64_t step, DayTime tau,
                          const std::vector<DocId>& new_docs) {
  uint64_t tau_bits = 0;
  std::memcpy(&tau_bits, &tau, sizeof(tau_bits));
  const uint32_t docs_crc = Crc32c(
      std::string_view(reinterpret_cast<const char*>(new_docs.data()),
                       new_docs.size() * sizeof(DocId)));
  return StringPrintf("outcome %llu %016llx %08x\n",
                      static_cast<unsigned long long>(step),
                      static_cast<unsigned long long>(tau_bits), docs_crc);
}

// The records of an outcome log: none when it is missing or unreadable,
// the valid prefix when its framing is damaged.
std::vector<std::string> ReadOutcomes(Env* env, const std::string& path) {
  if (!env->FileExists(path)) return {};
  Result<WalReadResult> log = ReadWal(env, path);
  if (!log.ok()) return {};
  return std::move(log->records);
}

// The logged clustering whose record opens with `header`, if one parses.
std::optional<ClusteringResult> FindOutcome(
    const std::vector<std::string>& records, const std::string& header) {
  for (const std::string& record : records) {
    if (record.compare(0, header.size(), header) != 0) continue;
    Result<ClusteringResult> logged =
        ParseResultSection(std::string_view(record).substr(header.size()));
    if (logged.ok()) return std::move(logged).value();
  }
  return std::nullopt;
}

// Decodes one corpus record and installs it into `corpus`.
Status InstallCorpusRecord(Corpus* corpus, std::string_view payload) {
  Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
  if (!record.ok()) return record.status();
  return corpus->Install(record->first_term, record->terms,
                         record->first_doc, std::move(record->docs));
}

// The state `generation` starts from: its snapshot, or for a first
// generation without one, the empty state a fresh store starts from. A
// store that logs documents frames its snapshot as a log of two records,
// the state and the corpus record of its live window; that record is
// installed into `corpus`, which must be empty, and `*corpus_touched` is
// set before anything is installed.
Result<ClustererState> LoadBaseState(Env* env, const std::string& dir,
                                     uint64_t generation, Corpus* corpus,
                                     const ForgettingParams& params,
                                     const IncrementalOptions& options,
                                     bool* corpus_touched) {
  const std::string path = dir + "/" + SnapshotFileName(generation);
  if (generation == kFirstGeneration && !env->FileExists(path)) {
    return CaptureState(IncrementalClusterer(corpus, params, options));
  }
  // One read, dispatched on the WAL header: a store that logs no
  // documents writes the state text alone.
  Result<std::string> contents = env->ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  if (!HasWalHeader(*contents)) return ParseState(*contents);
  const WalReadResult framed = ParseWal(std::move(contents).value());
  if (!framed.clean || framed.records.size() != 2) {
    return Status::InvalidArgument("damaged snapshot " + path);
  }
  *corpus_touched = true;
  NIDC_RETURN_NOT_OK(InstallCorpusRecord(corpus, framed.records[1]));
  return ParseState(framed.records[0]);
}

}  // namespace

std::string EncodeStepOutcome(uint64_t step, DayTime tau,
                              const std::vector<DocId>& new_docs,
                              const ClusteringResult& clustering) {
  std::string payload = OutcomeHeader(step, tau, new_docs);
  AppendResultSection(clustering, &payload);
  return payload;
}

Result<std::unique_ptr<DurableClusterer>> DurableClusterer::Open(
    Corpus* corpus, ForgettingParams params,
    IncrementalOptions options, DurableOptions durable) {
  return Recover(corpus, params, std::move(options), std::move(durable),
                 /*follower=*/false);
}

Result<std::unique_ptr<DurableClusterer>> DurableClusterer::OpenFollower(
    Corpus* corpus, ForgettingParams params,
    IncrementalOptions options, DurableOptions durable) {
  return Recover(corpus, params, std::move(options), std::move(durable),
                 /*follower=*/true);
}

Result<std::unique_ptr<DurableClusterer>> DurableClusterer::Recover(
    Corpus* corpus, ForgettingParams params,
    IncrementalOptions options, DurableOptions durable, bool follower) {
  if (durable.dir.empty()) {
    return Status::InvalidArgument("DurableOptions::dir is required");
  }
  if (durable.keep_generations == 0) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  if (durable.checkpoint_every == 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  NIDC_RETURN_NOT_OK(params.Validate());
  Env* env = durable.env != nullptr ? durable.env : Env::Default();
  durable.env = env;
  NIDC_RETURN_NOT_OK(env->CreateDir(durable.dir));
  // Sweep temp files a crashed AtomicWriteFile may have left behind; they
  // are never recovery inputs (the scan only matches fully renamed names).
  if (Result<std::vector<std::string>> names = env->ListDir(durable.dir);
      names.ok()) {
    for (const std::string& name : *names) {
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
        env->RemoveFile(durable.dir + "/" + name);
      }
    }
  }
  obs::MetricsRegistry* metrics =
      durable.metrics != nullptr ? durable.metrics : options.metrics;

  RecoveryInfo recovery;
  std::unique_ptr<IncrementalClusterer> inner;
  // The recovered generation's WAL, reopened when the store stays on it.
  std::unique_ptr<WalWriter> reused_wal;
  const std::vector<uint64_t> candidates =
      ListRecoveryCandidates(env, durable.dir);
  const uint64_t newest_on_disk =
      candidates.empty()
          ? 0
          : *std::max_element(candidates.begin(), candidates.end());
  uint64_t newest_seen = 0;
  // Set once this generation's snapshot or WAL installs into the corpus.
  bool corpus_touched = false;
  // Where recovery's time went: loading base states (fallbacks included),
  // replaying the WAL tail, and making the result durable.
  double load_seconds = 0.0;
  double replay_seconds = 0.0;
  double sync_seconds = 0.0;
  for (uint64_t generation : candidates) {
    newest_seen = std::max(newest_seen, generation);
    Stopwatch phase;
    Result<ClustererState> state =
        LoadBaseState(env, durable.dir, generation, corpus, params, options,
                      &corpus_touched);
    Result<std::unique_ptr<IncrementalClusterer>> restored =
        state.ok() ? RestoreClusterer(corpus, options, *state)
                   : Result<std::unique_ptr<IncrementalClusterer>>(
                         state.status());
    load_seconds += phase.ElapsedSeconds();
    phase.Restart();
    if (!restored.ok()) {
      // The previous generation starts again from an empty corpus.
      if (corpus_touched) *corpus = Corpus();
      corpus_touched = false;
      ++recovery.snapshot_fallbacks;
      NIDC_LOG(Warning) << "checkpoint generation " << generation
                       << " unusable (" << restored.status().ToString()
                       << "); falling back";
      continue;
    }
    inner = std::move(restored).value();

    // Replay this generation's WAL tail: install each corpus record, and
    // run each step record through Step(), installing the logged outcome
    // of those that have one. The outcome log is a hint: when it is
    // missing or unreadable every step re-runs.
    const std::string wal_path =
        durable.dir + "/" + WalFileName(generation);
    WalReadResult wal;
    // Records replayed, corpus records included.
    uint64_t applied = 0;
    if (env->FileExists(wal_path)) {
      Result<WalReadResult> read = ReadWal(env, wal_path);
      if (!read.ok()) return read.status();
      wal = std::move(read).value();
      recovery.dropped_wal_bytes += wal.dropped_bytes;
      if (!wal.clean) {
        NIDC_LOG(Warning) << "WAL " << wal_path << ": " << wal.error
                         << " (" << wal.dropped_bytes
                         << " bytes quarantined)";
      }
      const std::vector<std::string> outcomes = ReadOutcomes(
          env, durable.dir + "/" + OutcomeFileName(generation));
      for (const std::string& payload : wal.records) {
        if (IsCorpusIndexRecord(payload)) {
          corpus_touched = true;
          const Status installed = InstallCorpusRecord(corpus, payload);
          if (!installed.ok()) {
            ++recovery.quarantined_records;
            NIDC_LOG(Warning) << "quarantining uninstallable corpus record: "
                             << installed.ToString();
            break;
          }
          ++applied;
          continue;
        }
        Result<WalStepRecord> record = DecodeStepRecord(payload);
        if (!record.ok()) {
          ++recovery.quarantined_records;
          NIDC_LOG(Warning) << "quarantining undecodable WAL record: "
                           << record.status().ToString();
          break;
        }
        const std::optional<ClusteringResult> logged = FindOutcome(
            outcomes,
            OutcomeHeader(inner->step_count(), record->tau,
                          record->new_docs));
        Result<StepResult> stepped = inner->Step(
            record->new_docs, record->tau, logged ? &*logged : nullptr);
        if (!stepped.ok() &&
            stepped.status().code() != StatusCode::kFailedPrecondition) {
          // FailedPrecondition (an empty active window) also occurred in
          // the original run and leaves the model advanced — replay goes
          // on. Anything else means the record contradicts the state.
          ++recovery.quarantined_records;
          NIDC_LOG(Warning) << "quarantining unreplayable WAL record: "
                           << stepped.status().ToString();
          break;
        }
        ++recovery.replayed_records;
        ++applied;
        if (stepped.ok() && stepped->installed) ++recovery.installed_records;
      }
    }
    replay_seconds = phase.ElapsedSeconds();
    phase.Restart();
    // A follower always stays on the generation it recovered, so that
    // re-shipped frames line up with the leader's numbering. A leader
    // stays too, instead of checkpointing the state it has just read,
    // except in three cases, where it rotates:
    //   * a fresh directory (no candidate reaches here) keeps the
    //     implicit generation 1;
    //   * a snapshot fell back, or a newer generation is on disk: growing
    //     an older generation's WAL while a newer generation's files
    //     exist would let a later rotation reuse that generation number
    //     over stale WAL records;
    //   * a replication sink: the shipper takes a follower's catch-up
    //     base from the OnRotate call Open makes.
    const bool stay = follower || (recovery.snapshot_fallbacks == 0 &&
                                   generation == newest_on_disk &&
                                   durable.sink == nullptr);
    if (stay) {
      // New records continue this WAL, so it must end on the replayed
      // prefix: a torn or quarantined tail is cut back to it, and a WAL
      // that replayed nothing may have lost its unsynced header and
      // starts afresh.
      if (applied > 0 && (!wal.clean || recovery.quarantined_records > 0)) {
        wal.records.resize(applied);
        NIDC_RETURN_NOT_OK(RewriteWal(env, wal_path, wal.records));
      }
      Result<std::unique_ptr<WalWriter>> reopened =
          applied == 0
              ? WalWriter::Create(env, wal_path, durable.wal_sync)
              : OpenWalForAppend(env, wal_path, durable.wal_sync, applied);
      if (!reopened.ok()) return reopened.status();
      reused_wal = std::move(reopened).value();
      // Everything recovery applied is durable once Open returns, as a
      // checkpoint would have made it, including records a process kill
      // left unsynced in the page cache.
      if (applied > 0) NIDC_RETURN_NOT_OK(reused_wal->Sync());
      sync_seconds = phase.ElapsedSeconds();
    }
    recovery.resumed = true;
    recovery.source_generation = generation;
    break;
  }

  if (inner == nullptr) {
    inner = std::make_unique<IncrementalClusterer>(corpus, params, options);
  }
  recovery.recovered_now = inner->model().now();

  std::unique_ptr<DurableClusterer> durable_clusterer(new DurableClusterer(
      std::move(inner), std::move(durable), metrics));
  durable_clusterer->recovery_ = recovery;
  durable_clusterer->logs_corpus_ = corpus_touched;
  durable_clusterer->logged_terms_ = corpus->vocabulary().size();
  durable_clusterer->logged_docs_ = corpus->size();
  durable_clusterer->follower_ = follower;
  if (follower || reused_wal != nullptr) {
    // Stay on the recovered generation (a fresh follower's is 0, with no
    // WAL until a snapshot or seal establishes one). The checkpoint
    // cadence continues from its replayed steps, and generation 1's next
    // record syncs the directory as it does after Rotate.
    durable_clusterer->generation_ = recovery.source_generation;
    durable_clusterer->wal_ = std::move(reused_wal);
    durable_clusterer->records_since_checkpoint_ = recovery.replayed_records;
    durable_clusterer->sync_dir_at_next_record_ =
        recovery.source_generation == kFirstGeneration &&
        durable_clusterer->durable_.wal_sync == WalSyncMode::kEveryRecord;
  } else {
    // Start a fresh generation so post-recovery writes never touch the
    // files recovery might still need as fallback.
    durable_clusterer->generation_ = newest_seen;
    const Stopwatch rotate;
    NIDC_RETURN_NOT_OK(durable_clusterer->Rotate());
    sync_seconds = rotate.ElapsedSeconds();
  }
  durable_clusterer->recovery_.new_generation =
      durable_clusterer->generation_;

  if (metrics != nullptr) {
    metrics->GetGauge("store.generation")
        ->Set(static_cast<double>(durable_clusterer->generation_));
    metrics->GetCounter("store.recovery.replayed_records")
        ->Increment(recovery.replayed_records);
    metrics->GetCounter("store.recovery.installed_records")
        ->Increment(recovery.installed_records);
    metrics->GetCounter("store.recovery.quarantined_records")
        ->Increment(recovery.quarantined_records);
    metrics->GetCounter("store.recovery.snapshot_fallbacks")
        ->Increment(recovery.snapshot_fallbacks);
    metrics->GetCounter("store.recovery.dropped_wal_bytes")
        ->Increment(recovery.dropped_wal_bytes);
    metrics->GetGauge("store.recovery.load_seconds")->Set(load_seconds);
    metrics->GetGauge("store.recovery.replay_seconds")->Set(replay_seconds);
    metrics->GetGauge("store.recovery.sync_seconds")->Set(sync_seconds);
  }
  return durable_clusterer;
}

Result<StepResult> DurableClusterer::Step(const std::vector<DocId>& new_docs,
                                          DayTime tau) {
  WalStepRecord record;
  record.tau = tau;
  record.new_docs = new_docs;
  return StepLogged(EncodeStepRecord(record), new_docs, tau);
}

Result<StepResult> DurableClusterer::ApplyRecord(std::string_view payload) {
  Result<WalStepRecord> record = DecodeStepRecord(payload);
  if (!record.ok()) return record.status();
  return StepLogged(payload, record->new_docs, record->tau);
}

Result<StepResult> DurableClusterer::StepLogged(
    std::string_view payload, const std::vector<DocId>& new_docs,
    DayTime tau) {
  if (closed_ || wal_ == nullptr) {
    return Status::FailedPrecondition("durable clusterer is closed");
  }
  // Validate first so rejected inputs never enter the log.
  NIDC_RETURN_NOT_OK(inner_->ValidateStepInputs(new_docs, tau));

  NIDC_RETURN_NOT_OK(AppendToWal(payload, /*sync=*/true));
  ++records_since_checkpoint_;
  if (durable_.tracer != nullptr) {
    durable_.tracer->RecordActive(obs::Stage::kWalCommit);
  }
  if (durable_.sink != nullptr) {
    // Ship only after the record is durably appended locally: a follower
    // never holds a record this leader could lose in a crash it survives.
    durable_.sink->OnWalRecord(generation_, records_since_checkpoint_,
                               inner_->step_count() + 1, payload);
  }

  const uint64_t step = inner_->step_count();
  Result<StepResult> result = inner_->Step(new_docs, tau);
  // FailedPrecondition (no active documents) leaves the instance — and
  // its WAL — consistent; the caller may keep streaming.
  if (!result.ok() &&
      result.status().code() != StatusCode::kFailedPrecondition) {
    return result;
  }
  if (result.ok()) LogOutcome(step, tau, new_docs, result->clustering);
  if (durable_.tracer != nullptr) {
    durable_.tracer->RecordActive(obs::Stage::kStep);
  }
  if (!follower_ && records_since_checkpoint_ >= durable_.checkpoint_every) {
    NIDC_RETURN_NOT_OK(Rotate());
    if (durable_.tracer != nullptr) {
      durable_.tracer->RecordActive(obs::Stage::kCheckpoint);
    }
  }
  return result;
}

Status DurableClusterer::LogCorpus() {
  if (closed_ || wal_ == nullptr) {
    return Status::FailedPrecondition("durable clusterer is closed");
  }
  const Corpus& corpus = inner_->model().corpus();
  CorpusIndexSpan span;
  span.first_term = static_cast<TermId>(logged_terms_);
  span.end_term = static_cast<TermId>(corpus.vocabulary().size());
  span.first_doc = static_cast<DocId>(logged_docs_);
  span.end_doc = static_cast<DocId>(corpus.size());
  NIDC_RETURN_NOT_OK(
      AppendToWal(EncodeCorpusIndexRecord(corpus, span), /*sync=*/false));
  logs_corpus_ = true;
  logged_terms_ = span.end_term;
  logged_docs_ = span.end_doc;
  corpus_unsynced_ = durable_.wal_sync == WalSyncMode::kEveryRecord;
  return Status::OK();
}

Status DurableClusterer::SyncCorpus() {
  if (!corpus_unsynced_) return Status::OK();
  NIDC_RETURN_NOT_OK(wal_->Sync());
  corpus_unsynced_ = false;
  return Status::OK();
}

Status DurableClusterer::AppendToWal(std::string_view payload, bool sync) {
  const uint64_t bytes_before = wal_->bytes_appended();
  NIDC_RETURN_NOT_OK(wal_->AppendRecord(payload, sync));
  if (sync) corpus_unsynced_ = false;
  if (sync_dir_at_next_record_) {
    // The first generation's WAL is its only file: make its directory
    // entry durable before a step depends on it.
    NIDC_RETURN_NOT_OK(durable_.env->SyncDir(durable_.dir));
    sync_dir_at_next_record_ = false;
  }
  BumpCounter("store.wal_records");
  BumpCounter("store.wal_bytes", wal_->bytes_appended() - bytes_before);
  return Status::OK();
}

Status DurableClusterer::Checkpoint() {
  if (closed_) {
    return Status::FailedPrecondition("durable clusterer is closed");
  }
  return Rotate();
}

Status DurableClusterer::InstallSnapshot(uint64_t generation,
                                         const std::string& snapshot) {
  if (closed_) {
    return Status::FailedPrecondition("durable clusterer is closed");
  }
  Result<ClustererState> state = ParseState(snapshot);
  if (!state.ok()) return state.status();
  Result<std::unique_ptr<IncrementalClusterer>> restored = RestoreClusterer(
      &inner_->model().corpus(), inner_->options(), *state);
  if (!restored.ok()) return restored.status();
  // Disk first, memory second: a crash between the two recovers the
  // installed snapshot, never a model with no on-disk base.
  NIDC_RETURN_NOT_OK(CommitGeneration(generation, snapshot,
                                      /*implicit=*/false));
  inner_ = std::move(restored).value();
  return Status::OK();
}

Status DurableClusterer::Rotate() {
  // The first generation writes neither a snapshot nor a manifest: its
  // base is the empty state recovery rebuilds from the params, and its
  // WAL alone marks it.
  const uint64_t next = generation_ + 1;
  return CommitGeneration(next, SerializeState(CaptureState(*inner_)),
                          /*implicit=*/next == kFirstGeneration);
}

Status DurableClusterer::CommitGeneration(uint64_t next,
                                          const std::string& snapshot_text,
                                          bool implicit) {
  Env* env = durable_.env;
  const uint64_t sealed_records = records_since_checkpoint_;
  const std::string snapshot_name = SnapshotFileName(next);
  const std::string wal_name = WalFileName(next);

  // Order matters: snapshot first, then a fresh WAL, then the manifest
  // flip. A crash between any two leaves the previous generation (still
  // on disk, still current in the manifest) fully recoverable.
  const std::string snapshot_path = durable_.dir + "/" + snapshot_name;
  if (!implicit && !logs_corpus_) {
    NIDC_RETURN_NOT_OK(AtomicWriteFile(env, snapshot_path, snapshot_text));
  } else if (!implicit) {
    // The live window rides along: the whole vocabulary and every
    // retained document, so the generation needs no older corpus record.
    const Corpus& corpus = inner_->model().corpus();
    CorpusIndexSpan window;
    window.end_term = static_cast<TermId>(corpus.vocabulary().size());
    window.first_doc = corpus.first_retained();
    window.end_doc = static_cast<DocId>(corpus.size());
    std::vector<std::string> records(1, snapshot_text);
    records.push_back(EncodeCorpusIndexRecord(corpus, window));
    NIDC_RETURN_NOT_OK(RewriteWal(env, snapshot_path, records));
    logged_terms_ = window.end_term;
    logged_docs_ = window.end_doc;
  }
  if (wal_ != nullptr) {
    wal_->Close();  // superseded; any unsynced tail is covered by the snapshot
  }
  if (outcomes_ != nullptr) outcomes_->Close();
  outcomes_ = nullptr;
  outcomes_failed_ = false;
  auto wal = WalWriter::Create(env, durable_.dir + "/" + wal_name,
                               durable_.wal_sync);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();

  if (!implicit) {
    Manifest manifest;
    manifest.generation = next;
    manifest.snapshot_file = snapshot_name;
    manifest.wal_file = wal_name;
    NIDC_RETURN_NOT_OK(WriteManifest(env, durable_.dir, manifest));
  }

  generation_ = next;
  records_since_checkpoint_ = 0;
  // Nothing synced the directory since the WAL was created, and no
  // manifest flip will: its first record does that.
  sync_dir_at_next_record_ =
      implicit && durable_.wal_sync == WalSyncMode::kEveryRecord;
  if (durable_.sink != nullptr) {
    // The manifest flip above is the commit point (for the first
    // generation, Open itself: recovery rebuilds its base from nothing);
    // followers only learn about generations that recovery on this node
    // would itself pick.
    durable_.sink->OnRotate(generation_, sealed_records,
                            inner_->step_count(), snapshot_text);
  }
  if (!implicit) BumpCounter("store.snapshots");
  if (metrics_ != nullptr) {
    metrics_->GetGauge("store.generation")
        ->Set(static_cast<double>(generation_));
  }
  if (obs::EventLog* events = inner_->options().events; events != nullptr) {
    if (!implicit) {
      obs::Event committed;
      committed.type = obs::EventType::kCheckpointCommitted;
      committed.detail = generation_;
      events->Emit(committed);
    }
    obs::Event rotated;
    rotated.type = obs::EventType::kWalRotated;
    rotated.detail = generation_;
    events->Emit(rotated);
  }

  // Prune generations beyond the retention window (best effort — stale
  // files are harmless and will be retried next rotation).
  if (Result<std::vector<uint64_t>> generations =
          ListStoredGenerations(env, durable_.dir);
      generations.ok()) {
    for (uint64_t generation : *generations) {
      if (generation + durable_.keep_generations <= generation_) {
        env->RemoveFile(durable_.dir + "/" + SnapshotFileName(generation));
        env->RemoveFile(durable_.dir + "/" + WalFileName(generation));
        env->RemoveFile(durable_.dir + "/" + OutcomeFileName(generation));
      }
    }
  }
  return Status::OK();
}

Status DurableClusterer::Close() {
  if (closed_) return Status::OK();
  Status st;
  if (!follower_) {
    st = Rotate();  // final durable snapshot; empty WAL tail
  } else if (wal_ != nullptr) {
    st = wal_->Sync();  // sealed where the leader's frames left it
  }
  if (wal_ != nullptr) {
    const Status closed = wal_->Close();
    if (st.ok()) st = closed;
    wal_ = nullptr;
  }
  outcomes_ = nullptr;
  closed_ = true;
  return st;
}

DurableClusterer::~DurableClusterer() { Close(); }

void DurableClusterer::LogOutcome(uint64_t step, DayTime tau,
                                  const std::vector<DocId>& new_docs,
                                  const ClusteringResult& clustering) {
  if (outcomes_failed_) return;
  Status st;
  if (outcomes_ == nullptr) {
    // Truncate: a log left by an earlier process for this generation
    // number belongs to another stream of steps.
    Result<std::unique_ptr<WalWriter>> log = WalWriter::Create(
        durable_.env, durable_.dir + "/" + OutcomeFileName(generation_),
        WalSyncMode::kNone);
    if (log.ok()) {
      outcomes_ = std::move(log).value();
    } else {
      st = log.status();
    }
  }
  if (st.ok()) {
    st = outcomes_->AppendRecord(
        EncodeStepOutcome(step, tau, new_docs, clustering));
  }
  // Flushed, never synced: a process kill keeps the record, and what a
  // power loss takes only costs recovery a K-means run.
  if (st.ok()) st = outcomes_->Flush();
  if (!st.ok()) outcomes_failed_ = true;
}

void DurableClusterer::BumpCounter(const char* name, uint64_t delta) {
  if (metrics_ != nullptr) metrics_->GetCounter(name)->Increment(delta);
}

}  // namespace nidc
