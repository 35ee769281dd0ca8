#include "nidc/shard/tenant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nidc/obs/json_util.h"
#include "nidc/shard/ingest.h"

namespace nidc::shard {

namespace {

constexpr char kConfigFile[] = "/TENANT.json";
constexpr char kCorpusFile[] = "/corpus.tsv";
constexpr char kStoreDir[] = "/store";

Env* EnvOf(const TenantRuntime& runtime) {
  return runtime.env != nullptr ? runtime.env : Env::Default();
}

}  // namespace

Status TenantConfig::Validate() const {
  NIDC_RETURN_NOT_OK(params.Validate());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!std::isfinite(step_days) || step_days <= 0.0) {
    return Status::InvalidArgument("step_days must be finite and > 0");
  }
  if (!std::isfinite(start_time)) {
    return Status::InvalidArgument("start_time must be finite");
  }
  return Status::OK();
}

std::string TenantConfig::ToJson() const {
  obs::JsonObjectBuilder builder;
  builder.Add("half_life_days", params.half_life_days);
  builder.Add("life_span_days", params.life_span_days);
  builder.Add("k", static_cast<uint64_t>(k));
  builder.Add("step_days", step_days);
  builder.Add("start_time", start_time);
  builder.Add("seed", static_cast<uint64_t>(seed));
  return builder.Render();
}

Result<TenantConfig> TenantConfig::FromJson(const std::string& json) {
  Result<obs::JsonValue> parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("TENANT.json: expected a JSON object");
  }
  TenantConfig config;
  auto number = [&](const char* key, double* out) -> Status {
    const obs::JsonValue* value = parsed->Find(key);
    if (value == nullptr || !value->is_number()) {
      return Status::InvalidArgument(std::string("TENANT.json: missing ") +
                                     key);
    }
    *out = value->number;
    return Status::OK();
  };
  double k = 0.0, seed = 0.0;
  NIDC_RETURN_NOT_OK(number("half_life_days", &config.params.half_life_days));
  NIDC_RETURN_NOT_OK(number("life_span_days", &config.params.life_span_days));
  NIDC_RETURN_NOT_OK(number("k", &k));
  NIDC_RETURN_NOT_OK(number("step_days", &config.step_days));
  NIDC_RETURN_NOT_OK(number("start_time", &config.start_time));
  NIDC_RETURN_NOT_OK(number("seed", &seed));
  config.k = static_cast<size_t>(k);
  config.seed = static_cast<uint64_t>(seed);
  NIDC_RETURN_NOT_OK(config.Validate());
  return config;
}

Tenant::Tenant(std::string name, std::string dir, TenantConfig config,
               TenantRuntime runtime)
    : name_(std::move(name)),
      dir_(std::move(dir)),
      config_(config),
      runtime_(runtime),
      batcher_(config.start_time, config.step_days),
      last_time_(config.start_time),
      now_(config.start_time) {
  events_ = std::make_unique<obs::EventLog>(256, &metrics_);
  obs::ClusterHealthOptions health_options;
  health_options.metrics = &metrics_;
  health_ = std::make_unique<obs::ClusterHealthMonitor>(health_options);
}

Result<std::unique_ptr<Tenant>> Tenant::Create(const std::string& name,
                                               const std::string& dir,
                                               const TenantConfig& config,
                                               const TenantRuntime& runtime) {
  NIDC_RETURN_NOT_OK(config.Validate());
  Env* env = EnvOf(runtime);
  NIDC_RETURN_NOT_OK(env->CreateDir(dir));
  if (env->FileExists(dir + kConfigFile)) {
    return Status::AlreadyExists("tenant directory " + dir +
                                 " already holds a TENANT.json");
  }
  NIDC_RETURN_NOT_OK(
      AtomicWriteFile(env, dir + kConfigFile, config.ToJson()));
  std::unique_ptr<Tenant> tenant(
      new Tenant(name, dir, config, runtime));
  NIDC_RETURN_NOT_OK(
      tenant->Boot(std::make_unique<Corpus>(), /*fresh=*/true));
  return tenant;
}

Result<std::unique_ptr<Tenant>> Tenant::Open(const std::string& name,
                                             const std::string& dir,
                                             const TenantRuntime& runtime) {
  Env* env = EnvOf(runtime);
  if (!env->FileExists(dir + kConfigFile)) {
    return Status::NotFound("no TENANT.json under " + dir);
  }
  Result<std::string> config_text = env->ReadFileToString(dir + kConfigFile);
  if (!config_text.ok()) return config_text.status();
  Result<TenantConfig> config = TenantConfig::FromJson(*config_text);
  if (!config.ok()) return config.status();

  std::unique_ptr<Corpus> corpus;
  const std::string corpus_path = dir + kCorpusFile;
  if (env->FileExists(corpus_path)) {
    Result<std::unique_ptr<Corpus>> loaded = LoadCorpus(corpus_path);
    if (!loaded.ok()) return loaded.status();
    corpus = std::move(loaded).value();
  } else {
    corpus = std::make_unique<Corpus>();
  }

  std::unique_ptr<Tenant> tenant(
      new Tenant(name, dir, *config, runtime));
  NIDC_RETURN_NOT_OK(tenant->Boot(std::move(corpus), /*fresh=*/false));
  return tenant;
}

Status Tenant::Boot(std::unique_ptr<Corpus> corpus, bool fresh) {
  corpus_ = std::move(corpus);

  IncrementalOptions options;
  options.kmeans.k = config_.k;
  options.kmeans.seed = config_.seed;
  options.kmeans.num_threads =
      runtime_.kmeans_threads == 0 ? 1 : runtime_.kmeans_threads;
  options.metrics = &metrics_;
  options.events = events_.get();
  options.health = health_.get();

  DurableOptions durable;
  durable.dir = dir_ + kStoreDir;
  durable.checkpoint_every = runtime_.checkpoint_every;
  durable.wal_sync = runtime_.wal_sync;
  durable.env = runtime_.env;
  durable.metrics = &metrics_;
  durable.tracer = runtime_.tracer;

  Result<std::unique_ptr<DurableClusterer>> opened = DurableClusterer::Open(
      corpus_.get(), config_.params, options, std::move(durable));
  if (!opened.ok()) return opened.status();
  durable_ = std::move(opened).value();

  batcher_ = TimeBatcher(config_.start_time, config_.step_days);
  last_time_ =
      std::max(config_.start_time,
               corpus_->empty() ? config_.start_time : corpus_->MaxTime());
  docs_ingested_ = corpus_->size();

  if (!fresh && durable_->recovery().resumed) {
    // A stepped document's time is strictly below its window end, which
    // is at most the recovered clock — so everything at or after the
    // clock is exactly the unstepped tail, and re-priming it rebuilds
    // the open window. Windows that close during the re-prime were
    // appended to corpus.tsv but never reached the WAL (a crash between
    // the two); stepping them now heals that gap.
    const DayTime resume_cursor =
        std::max(config_.start_time, durable_->recovery().recovered_now);
    NIDC_RETURN_NOT_OK(batcher_.SeekTo(resume_cursor));
    std::vector<DocumentBatch> closed;
    std::vector<uint64_t> reprimed;
    for (const Document& doc : corpus_->docs()) {
      if (doc.time < resume_cursor) continue;
      NIDC_RETURN_NOT_OK(batcher_.Add(doc.id, doc.time, &closed));
      reprimed.push_back(static_cast<uint64_t>(doc.id));
    }
    if (runtime_.tracer != nullptr && !reprimed.empty()) {
      // Traces bound before the crash/evict finish their stage records
      // through this re-drive; flag them so /tracez shows the resume.
      for (const obs::TraceContext& trace :
           runtime_.tracer->TracesForDocs(name_, reprimed)) {
        runtime_.tracer->MarkResumed(trace);
      }
    }
    NIDC_RETURN_NOT_OK(StepWindows(closed));
  }
  PublishProgress();

  // Append handle for future ingest; created fresh for a new tenant.
  Result<std::unique_ptr<WritableFile>> file =
      EnvOf(runtime_)->NewWritableFile(dir_ + kCorpusFile,
                                       /*truncate=*/fresh);
  if (!file.ok()) return file.status();
  corpus_file_ = std::move(file).value();
  return Status::OK();
}

Status Tenant::Ingest(const std::vector<RawDocument>& docs,
                      const obs::TraceContext& trace) {
  if (closed_) return Status::FailedPrecondition("tenant is closed");
  if (failed_) {
    return Status::FailedPrecondition(
        "tenant storage is in an unknown state; evict and reopen");
  }
  if (docs.empty()) return Status::OK();

  // Validate the whole batch, as stored, before touching anything: the
  // feed must stay chronological end to end (corpus.tsv order is DocId
  // order), and no document may fall before the open window.
  DayTime floor = std::max(last_time_, batcher_.cursor());
  std::vector<RawDocument> sanitized;
  sanitized.reserve(docs.size());
  for (const RawDocument& doc : docs) {
    if (!std::isfinite(doc.time) || doc.time < floor) {
      return Status::InvalidArgument(
          "document times must be non-decreasing and not before day " +
          std::to_string(floor));
    }
    floor = doc.time;
    RawDocument& clean = sanitized.emplace_back();
    clean.time = doc.time;
    clean.topic = doc.topic;
    clean.source = SanitizeText(doc.source);
    clean.text = SanitizeText(doc.text);
    if (clean.text.find_first_not_of(' ') == std::string::npos) {
      return Status::InvalidArgument("document text must not be empty");
    }
  }

  // Persist before stepping: the WAL must never reference a DocId the
  // corpus file does not yet durably hold, or recovery replay would meet
  // unknown ids. (The reverse — corpus ahead of the WAL — heals on
  // reopen; see Boot.)
  std::string block;
  for (const RawDocument& doc : sanitized) {
    block += FormatRawDocument(doc);
    block += '\n';
  }
  if (Status appended = corpus_file_->Append(block); !appended.ok()) {
    failed_ = true;
    return appended;
  }
  if (Status synced = corpus_file_->Sync(); !synced.ok()) {
    failed_ = true;
    return synced;
  }

  std::vector<DocumentBatch> closed;
  for (const RawDocument& doc : sanitized) {
    const DocId id =
        corpus_->AddText(doc.text, doc.time, doc.topic, doc.source);
    if (runtime_.tracer != nullptr && trace.valid()) {
      runtime_.tracer->BindDoc(name_, static_cast<uint64_t>(id), trace);
    }
    // Cannot fail: validation pinned every time at or after the cursor.
    NIDC_RETURN_NOT_OK(batcher_.Add(id, doc.time, &closed));
  }
  docs_ingested_ += sanitized.size();
  last_time_ = sanitized.back().time;
  if (runtime_.shared_metrics != nullptr) {
    runtime_.shared_metrics->GetCounter("shard.ingest.docs")
        ->Increment(sanitized.size());
    runtime_.shared_metrics
        ->GetCounter("shard.tenant." + name_ + ".docs")
        ->Increment(sanitized.size());
  }
  metrics_.GetCounter("shard.tenant.docs")->Increment(sanitized.size());
  const Status stepped = StepWindows(closed);
  PublishProgress();
  return stepped;
}

Status Tenant::FlushUntil(DayTime until) {
  if (closed_) return Status::FailedPrecondition("tenant is closed");
  if (failed_) {
    return Status::FailedPrecondition(
        "tenant storage is in an unknown state; evict and reopen");
  }
  if (!std::isfinite(until)) {
    return Status::InvalidArgument("flush time must be finite");
  }
  std::vector<DocumentBatch> closed;
  batcher_.FlushUntil(until, &closed);
  const Status stepped = StepWindows(closed);
  PublishProgress();
  return stepped;
}

Status Tenant::StepWindows(std::vector<DocumentBatch>& closed) {
  for (DocumentBatch& window : closed) {
    std::vector<obs::TraceContext> traces;
    if (runtime_.tracer != nullptr && !window.docs.empty()) {
      std::vector<uint64_t> ids;
      ids.reserve(window.docs.size());
      for (DocId doc : window.docs) {
        ids.push_back(static_cast<uint64_t>(doc));
      }
      traces = runtime_.tracer->TracesForDocs(name_, ids);
      for (const obs::TraceContext& trace : traces) {
        runtime_.tracer->RecordStage(trace, obs::Stage::kWindowClose);
      }
    }
    // Scope the window's traces onto this thread so the layers below —
    // WAL commit, ship, step, checkpoint, (in-process) apply — stamp
    // their stages without knowing trace ids. (The emptiness check must
    // not be an argument sibling of the move — argument evaluation order
    // would race it against the move.)
    obs::RequestTracer* scope_tracer =
        traces.empty() ? nullptr : runtime_.tracer;
    obs::RequestTracer::StepScope scope(scope_tracer, std::move(traces));
    Result<StepResult> result = durable_->Step(window.docs, window.end);
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kFailedPrecondition &&
          window.docs.empty()) {
        // An empty window with no active documents is a quiet day before
        // the feed starts (or after everything expired) — the CLI replay
        // skips it the same way, so bit-identity is preserved.
        ++empty_windows_skipped_;
        metrics_.GetCounter("shard.tenant.empty_windows_skipped")
            ->Increment();
        continue;
      }
      if (result.status().code() == StatusCode::kIOError) failed_ = true;
      return result.status();
    }
    PublishStep(window, *result);
  }
  return Status::OK();
}

void Tenant::PublishStep(const DocumentBatch& window,
                         const StepResult& result) {
  serve::StatusBoard::StepRecord record;
  record.step = durable_->applied_steps() > 0
                    ? durable_->applied_steps() - 1
                    : 0;  // StepRecord carries the 0-based index.
  record.num_new = result.num_new;
  record.num_active = result.num_active;
  record.num_outliers = result.num_outliers;
  record.num_clusters = result.clustering.NumNonEmpty();
  record.iterations = result.iterations;
  record.g = result.final_g;
  record.stats_seconds = result.stats_update_seconds;
  record.clustering_seconds = result.clustering_seconds;
  board_.RecordStep(record);

  serve::DurabilityStatus lag;
  lag.enabled = true;
  lag.generation = durable_->generation();
  lag.wal_records_since_checkpoint = durable_->wal_records_since_checkpoint();
  lag.checkpoint_every = durable_->checkpoint_every();
  board_.RecordDurability(lag);

  metrics_.GetGauge("shard.tenant.now")->Set(window.end);
  if (runtime_.shared_metrics != nullptr) {
    runtime_.shared_metrics->GetCounter("shard.steps")->Increment();
  }
}

Status Tenant::Checkpoint() {
  if (closed_ || failed_) {
    return Status::FailedPrecondition("tenant is closed or failed");
  }
  Status status = durable_->Checkpoint();
  if (!status.ok() && status.code() == StatusCode::kIOError) failed_ = true;
  return status;
}

Status Tenant::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status status = durable_ != nullptr ? durable_->Close() : Status::OK();
  if (corpus_file_ != nullptr) {
    Status file_closed = corpus_file_->Close();
    if (status.ok()) status = file_closed;
  }
  return status;
}

Tenant::~Tenant() { Close(); }

std::string Tenant::StateDigest() const {
  return SerializeState(CaptureState(durable_->clusterer()));
}

void Tenant::PublishProgress() {
  now_ = batcher_.cursor();
  steps_applied_ = durable_->applied_steps();
}

const RecoveryInfo& Tenant::recovery() const { return durable_->recovery(); }

}  // namespace nidc::shard
