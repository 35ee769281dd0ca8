#include "nidc/shard/tenant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "nidc/obs/json_util.h"
#include "nidc/shard/ingest.h"

namespace nidc::shard {

namespace {

constexpr char kConfigFile[] = "/TENANT.json";
constexpr char kCorpusFile[] = "/corpus.tsv";
constexpr char kStoreDir[] = "/store";
// TENANT.json's "layout": 2 is this layout, whose documents live in store/.
// The earlier corpus index layout, which read corpus.tsv back through an
// index file beside it, wrote no key.
constexpr char kLayoutKey[] = "layout";
constexpr uint64_t kLayout = 2;
// The corpus sizes each tenant publishes, in Tenant::corpus_gauges_ order.
constexpr const char* kCorpusGauges[] = {
    "retained_docs", "retained_term_entries", "retained_bytes",
    "vocabulary_terms", "vocabulary_bytes"};

Env* EnvOf(const TenantRuntime& runtime) {
  return runtime.env != nullptr ? runtime.env : Env::Default();
}

// The step options `config` fixes, without any sink: the live pipeline
// adds its sinks, and an explanation's replay runs them bare.
IncrementalOptions StepOptions(const TenantConfig& config) {
  IncrementalOptions options;
  options.kmeans.k = config.k;
  options.kmeans.seed = config.seed;
  return options;
}

}  // namespace

Status TenantConfig::Validate() const {
  NIDC_RETURN_NOT_OK(params.Validate());
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (seed > kMaxSeed) return Status::InvalidArgument("seed must be <= 2^53");
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
  builder.Add(kLayoutKey, kLayout);
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
  // Casting anything but a whole number in [0, 2^64) is undefined.
  for (const double value : {k, seed}) {
    if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) {
      return Status::InvalidArgument(
          "TENANT.json: k and seed must be non-negative integers");
    }
  }
  config.k = static_cast<size_t>(k);
  config.seed = static_cast<uint64_t>(seed);
  NIDC_RETURN_NOT_OK(config.Validate());
  const obs::JsonValue* layout = parsed->Find(kLayoutKey);
  if (layout == nullptr) {
    return Status::FailedPrecondition(
        "TENANT.json has no layout key: the tenant is in the old corpus index "
        "layout, whose documents are not in store/, and this build does not "
        "open it");
  }
  if (!layout->is_number() || layout->number != kLayout) {
    return Status::FailedPrecondition("TENANT.json: unknown tenant layout");
  }
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
  static_assert(std::size(kCorpusGauges) ==
                std::tuple_size_v<decltype(corpus_gauges_)>);
  for (size_t i = 0; i < corpus_gauges_.size(); ++i) {
    const std::string suffix = kCorpusGauges[i];
    corpus_gauges_[i].own =
        metrics_.GetGauge("shard.tenant.corpus_" + suffix);
    if (runtime_.shared_metrics != nullptr) {
      corpus_gauges_[i].shared =
          runtime_.shared_metrics->GetGauge("shard.corpus." + suffix);
    }
  }
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
  std::unique_ptr<Tenant> tenant(
      new Tenant(name, dir, config, runtime));
  NIDC_RETURN_NOT_OK(tenant->Boot(/*fresh=*/true));
  // TENANT.json's rename is the commit point: its directory sync also
  // makes the store/ and corpus.tsv entries Boot just created durable, so
  // a tenant that recovery sees is whole. Until then a crash leaves
  // leftovers that recovery skips and a re-create takes over.
  NIDC_RETURN_NOT_OK(
      AtomicWriteFile(env, dir + kConfigFile, config.ToJson()));
  NIDC_RETURN_NOT_OK(env->SyncDir(DirName(dir)));
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

  std::unique_ptr<Tenant> tenant(
      new Tenant(name, dir, *config, runtime));
  NIDC_RETURN_NOT_OK(tenant->Boot(/*fresh=*/false));
  return tenant;
}

Status Tenant::Boot(bool fresh) {
  corpus_ = std::make_unique<Corpus>();

  IncrementalOptions options = StepOptions(config_);
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
    // logged with their batch's corpus record but never reached a step
    // record (a crash between the two); stepping them now heals that.
    // Released documents all fall before the clock, so the cursor keeps
    // the chronological floor that the restored MaxTime may not.
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
    ReleaseStepped();
  }
  PublishProgress();

  // The archive's append handle; created fresh for a new tenant, and
  // again if it has gone.
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
    // Times as the corpus.tsv archive reads them back, so the live corpus
    // and a re-parse of the archive agree.
    const DayTime time =
        std::isfinite(doc.time) ? CanonicalTime(doc.time) : doc.time;
    if (!std::isfinite(time) || time < floor) {
      return Status::InvalidArgument(
          "document times must be non-decreasing and not before day " +
          std::to_string(floor));
    }
    floor = time;
    RawDocument& clean = sanitized.emplace_back();
    clean.time = time;
    clean.topic = doc.topic;
    clean.source = SanitizeText(doc.source);
    clean.text = SanitizeText(doc.text);
    if (clean.text.find_first_not_of(' ') == std::string::npos) {
      return Status::InvalidArgument("document text must not be empty");
    }
  }

  // One commit point: the batch's corpus record goes to the WAL ahead of
  // any step record that names its ids, and the first step record's sync
  // (or SyncCorpus, when no window closes) makes both durable.
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
  if (Status logged = durable_->LogCorpus(); !logged.ok()) {
    failed_ = true;
    return logged;
  }
  // The archive: flushed, never synced, and never read back.
  std::string block;
  for (const RawDocument& doc : sanitized) {
    block += FormatRawDocument(doc);
    block += '\n';
  }
  Status archived = corpus_file_->Append(block);
  if (archived.ok()) archived = corpus_file_->Flush();
  if (!archived.ok()) {
    failed_ = true;
    return archived;
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
  Status stepped = StepWindows(closed);
  if (stepped.ok()) {
    stepped = durable_->SyncCorpus();
    if (!stepped.ok()) failed_ = true;
  }
  if (stepped.ok()) ReleaseStepped();
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
  if (stepped.ok()) ReleaseStepped();
  PublishProgress();
  return stepped;
}

Status Tenant::StepWindows(std::vector<DocumentBatch>& closed) {
  for (DocumentBatch& window : closed) {
    std::vector<uint64_t> ids;
    std::vector<obs::TraceContext> traces;
    if (runtime_.tracer != nullptr && !window.docs.empty()) {
      ids.assign(window.docs.begin(), window.docs.end());
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
    // Only recovery re-drives a window, and only an unstepped one: these
    // documents' bindings have served their purpose.
    if (!ids.empty()) runtime_.tracer->UnbindDocs(name_, ids);
  }
  return Status::OK();
}

void Tenant::ReleaseStepped() {
  // The batcher holds the newest ids, so the open window starts at
  // size() - pending().
  auto end = static_cast<DocId>(corpus_->size() - batcher_.pending());
  const std::vector<DocId>& active =
      durable_->clusterer().model().active_docs();
  if (!active.empty()) {
    end = std::min(end, *std::min_element(active.begin(), active.end()));
  }
  corpus_->ReleaseBefore(end);
}

void PublishStepStatus(uint64_t step, const StepResult& result,
                       const DurableClusterer* durable,
                       serve::StatusBoard* board) {
  serve::StatusBoard::StepRecord record;
  record.step = step;
  record.num_new = result.num_new;
  record.num_active = result.num_active;
  record.num_outliers = result.num_outliers;
  record.num_clusters = result.clustering.NumNonEmpty();
  record.iterations = result.iterations;
  record.g = result.final_g;
  record.stats_seconds = result.stats_update_seconds;
  record.clustering_seconds = result.clustering_seconds;
  board->RecordStep(record);
  if (durable == nullptr) return;
  serve::DurabilityStatus lag;
  lag.enabled = true;
  lag.generation = durable->generation();
  lag.wal_records_since_checkpoint = durable->wal_records_since_checkpoint();
  lag.checkpoint_every = durable->checkpoint_every();
  board->RecordDurability(lag);
}

void Tenant::PublishStep(const DocumentBatch& window,
                         const StepResult& result) {
  // StepRecord carries the 0-based index.
  const uint64_t applied = durable_->applied_steps();
  PublishStepStatus(applied > 0 ? applied - 1 : 0, result, durable_.get(),
                    &board_);

  metrics_.GetGauge("shard.tenant.now")->Set(window.end);
  if (runtime_.shared_metrics != nullptr) {
    runtime_.shared_metrics->GetCounter("shard.steps")->Increment();
    // The service-wide view of a step's transient: the context of the
    // latest K-means step on any tenant.
    if (!result.installed) {
      runtime_.shared_metrics->GetGauge("step.context_entries")
          ->Set(static_cast<double>(result.context_entries));
      runtime_.shared_metrics->GetGauge("step.context_bytes")
          ->Set(static_cast<double>(result.context_bytes));
    }
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
  for (CorpusGauge& gauge : corpus_gauges_) {
    if (gauge.shared != nullptr) gauge.shared->Add(-gauge.published);
    gauge.published = 0.0;
  }
  return status;
}

Tenant::~Tenant() { Close(); }

std::string Tenant::StateDigest() const {
  return SerializeState(CaptureState(durable_->clusterer()));
}

Result<std::vector<DecisionRecord>> Tenant::Explain(uint64_t step) const {
  return ExplainStep(EnvOf(runtime_), dir_ + kStoreDir, /*corpus=*/nullptr,
                     config_.params, StepOptions(config_), step);
}

void Tenant::PublishProgress() {
  now_ = batcher_.cursor();
  steps_applied_ = durable_->applied_steps();
  const size_t values[] = {
      corpus_->docs().size(), corpus_->retained_term_entries(),
      corpus_->bytes(), corpus_->vocabulary().size(),
      corpus_->vocabulary().bytes()};
  static_assert(std::size(values) == std::size(kCorpusGauges));
  for (size_t i = 0; i < corpus_gauges_.size(); ++i) {
    CorpusGauge& gauge = corpus_gauges_[i];
    const auto value = static_cast<double>(values[i]);
    gauge.own->Set(value);
    if (gauge.shared != nullptr) gauge.shared->Add(value - gauge.published);
    gauge.published = value;
  }
}

const RecoveryInfo& Tenant::recovery() const { return durable_->recovery(); }

}  // namespace nidc::shard
