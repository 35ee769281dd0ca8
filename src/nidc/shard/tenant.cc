#include "nidc/shard/tenant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "nidc/obs/json_util.h"
#include "nidc/shard/ingest.h"
#include "nidc/util/crc32.h"

namespace nidc::shard {

namespace {

constexpr char kConfigFile[] = "/TENANT.json";
constexpr char kCorpusFile[] = "/corpus.tsv";
constexpr char kIndexFile[] = "/corpus.idx";
constexpr char kStoreDir[] = "/store";

Env* EnvOf(const TenantRuntime& runtime) {
  return runtime.env != nullptr ? runtime.env : Env::Default();
}

// What Open does with corpus.idx once the corpus is loaded.
enum class IndexPlan {
  /// It covers the whole file with clean framing: append to it.
  kAppend,
  /// It does not: rewrite it from the loaded corpus, one record per span.
  kRewrite,
  /// The file holds no bytes: the first ingest creates the index.
  kCreateAtIngest,
  /// The file ends inside a line, which the next append would extend, so
  /// no record may cover it: log nothing until the next reopen.
  kOff,
};

struct LoadedCorpus {
  std::unique_ptr<Corpus> corpus = std::make_unique<Corpus>();
  CorpusRecovery recovery;
  IndexPlan plan = IndexPlan::kCreateAtIngest;
  /// corpus.tsv's size.
  uint64_t bytes = 0;
  /// Line-aligned stretches of corpus.tsv in file order — each installed
  /// record's, then each analyzed chunk's — that a kRewrite re-encodes
  /// one record each, so no record grows with the corpus.
  std::vector<CorpusIndexSpan> spans;
};

// Where the next span of `corpus` starts: its current term and doc count.
CorpusIndexSpan SpanFrom(const Corpus& corpus, uint64_t begin) {
  CorpusIndexSpan span;
  span.begin = begin;
  span.first_term = static_cast<TermId>(corpus.vocabulary().size());
  span.first_doc = static_cast<DocId>(corpus.size());
  return span;
}

// Closes `span` at file offset `end`, with everything `corpus` gained.
CorpusIndexSpan SpanTo(CorpusIndexSpan span, const Corpus& corpus,
                       uint64_t end, uint32_t crc) {
  span.end = end;
  span.crc = crc;
  span.end_term = static_cast<TermId>(corpus.vocabulary().size());
  span.end_doc = static_cast<DocId>(corpus.size());
  return span;
}

// Reads corpus.tsv front to back in fixed-size chunks, so a reopen never
// holds the whole file, and counts the lines it has passed.
class CorpusStream {
 public:
  Status Open(Env* env, const std::string& path) {
    Result<std::unique_ptr<SequentialFile>> file =
        env->NewSequentialFile(path);
    if (!file.ok()) return file.status();
    file_ = std::move(file).value();
    buffer_.resize(kChunkBytes);
    return Status::OK();
  }

  /// Reads on to byte `end` or the end of the file, whichever comes
  /// first, handing each chunk to `fn`; stops at the first error.
  Status ReadTo(uint64_t end,
                const std::function<Status(std::string_view)>& fn) {
    while (pos_ < end && !eof_) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(kChunkBytes, end - pos_));
      Result<size_t> got = file_->Read(want, buffer_.data());
      if (!got.ok()) return got.status();
      eof_ = *got < want;
      if (*got == 0) break;
      const std::string_view chunk(buffer_.data(), *got);
      pos_ += chunk.size();
      newlines_ += std::count(chunk.begin(), chunk.end(), '\n');
      last_ = chunk.back();
      NIDC_RETURN_NOT_OK(fn(chunk));
    }
    return Status::OK();
  }

  uint64_t pos() const { return pos_; }
  /// Line feeds among the bytes read.
  uint64_t newlines() const { return newlines_; }
  /// The last byte read ('\0' before any).
  char last() const { return last_; }

 private:
  static constexpr size_t kChunkBytes = 64 << 10;

  std::unique_ptr<SequentialFile> file_;
  std::string buffer_;
  uint64_t pos_ = 0;
  uint64_t newlines_ = 0;
  char last_ = '\0';
  bool eof_ = false;
};

// Rebuilds a tenant's corpus from corpus.tsv: installs every leading
// corpus.idx record whose byte range and CRC match the file, then
// analyzes the rest as LoadCorpus would. The index is only a hint —
// a missing, torn, foreign or mismatched record ends the installed prefix.
Result<LoadedCorpus> LoadTenantCorpus(Env* env, const std::string& dir) {
  LoadedCorpus loaded;
  const std::string corpus_path = dir + kCorpusFile;
  if (!env->FileExists(corpus_path)) return loaded;
  Corpus& corpus = *loaded.corpus;
  CorpusStream stream;
  NIDC_RETURN_NOT_OK(stream.Open(env, corpus_path));

  // Install index records, streamed one at a time, while they fit.
  uint64_t covered = 0;
  uint64_t covered_lines = 0;
  bool index_current = false;
  if (const std::string index_path = dir + kIndexFile;
      env->FileExists(index_path)) {
    Result<std::unique_ptr<WalReader>> index = WalReader::Open(env, index_path);
    bool mismatch = !index.ok();
    std::string payload;
    while (!mismatch && (*index)->Next(&payload)) {
      Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
      if (!record.ok() || record->begin != covered) {
        mismatch = true;
        break;
      }
      uint32_t crc = 0;
      NIDC_RETURN_NOT_OK(
          stream.ReadTo(record->end, [&crc](std::string_view chunk) {
            crc = Crc32c(chunk, crc);
            return Status::OK();
          }));
      const CorpusIndexSpan span = SpanFrom(corpus, covered);
      const size_t docs = record->docs.size();
      if (stream.pos() != record->end || crc != record->crc ||
          !corpus
               .Install(record->first_term, record->terms, record->first_doc,
                        std::move(record->docs))
               .ok()) {
        mismatch = true;
        break;
      }
      loaded.spans.push_back(SpanTo(span, corpus, record->end, crc));
      loaded.recovery.installed_docs += docs;
      covered = record->end;
      covered_lines = stream.newlines();
    }
    index_current = !mismatch && (*index)->status().ok() && (*index)->clean();
  }
  const uint64_t installed_end = covered;
  if (stream.pos() != covered) {
    // A rejected record read past the installed prefix: restart there.
    stream = CorpusStream();
    NIDC_RETURN_NOT_OK(stream.Open(env, corpus_path));
    NIDC_RETURN_NOT_OK(stream.ReadTo(
        covered, [](std::string_view) { return Status::OK(); }));
  }

  // Analyze the tail a chunk of whole lines at a time; `pending` carries
  // a line that spans two chunks.
  size_t line = covered_lines + 1;
  std::string pending;
  const auto analyze = [&]() -> Status {
    const CorpusIndexSpan span = SpanFrom(corpus, covered);
    NIDC_RETURN_NOT_OK(AnalyzeRawText(pending, corpus_path, &line, &corpus));
    covered += pending.size();
    loaded.spans.push_back(SpanTo(span, corpus, covered, Crc32c(pending)));
    return Status::OK();
  };
  NIDC_RETURN_NOT_OK(stream.ReadTo(UINT64_MAX, [&](std::string_view chunk) {
    const size_t end = chunk.rfind('\n');
    if (end == std::string_view::npos) {
      pending.append(chunk);
      return Status::OK();
    }
    pending.append(chunk.substr(0, end + 1));
    NIDC_RETURN_NOT_OK(analyze());
    pending.assign(chunk.substr(end + 1));
    return Status::OK();
  }));
  if (!pending.empty()) NIDC_RETURN_NOT_OK(analyze());
  loaded.recovery.analyzed_docs =
      corpus.size() - loaded.recovery.installed_docs;

  loaded.bytes = stream.pos();
  if (loaded.bytes == 0) {
    loaded.plan = IndexPlan::kCreateAtIngest;
  } else if (index_current && installed_end == loaded.bytes) {
    loaded.plan = IndexPlan::kAppend;
  } else if (stream.last() == '\n') {
    loaded.plan = IndexPlan::kRewrite;
  } else {
    loaded.plan = IndexPlan::kOff;
  }
  return loaded;
}

// Readies corpus.idx for appends after Open, per `loaded.plan`; null when
// the first ingest is to create it, an error when nothing may be logged.
// Like every index write, a rewrite is flushed, never fsynced.
Result<std::unique_ptr<WalWriter>> OpenIndex(Env* env, const std::string& dir,
                                             const LoadedCorpus& loaded,
                                             const Corpus& corpus) {
  const std::string path = dir + kIndexFile;
  switch (loaded.plan) {
    case IndexPlan::kAppend:
      return OpenWalForAppend(env, path, WalSyncMode::kNone, 0);
    case IndexPlan::kRewrite: {
      Result<std::unique_ptr<WalWriter>> log =
          WalWriter::Create(env, path, WalSyncMode::kNone);
      if (!log.ok()) return log;
      for (const CorpusIndexSpan& span : loaded.spans) {
        NIDC_RETURN_NOT_OK(
            (*log)->AppendRecord(EncodeCorpusIndexRecord(corpus, span)));
      }
      NIDC_RETURN_NOT_OK((*log)->Flush());
      return log;
    }
    case IndexPlan::kCreateAtIngest:
      return std::unique_ptr<WalWriter>();
    case IndexPlan::kOff:
      break;
  }
  return Status::FailedPrecondition("corpus.tsv ends inside a line");
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
  retained_gauge_ = metrics_.GetGauge("shard.tenant.corpus_retained_docs");
  retained_entries_gauge_ =
      metrics_.GetGauge("shard.tenant.corpus_retained_term_entries");
  if (runtime_.shared_metrics != nullptr) {
    shared_retained_gauge_ =
        runtime_.shared_metrics->GetGauge("shard.corpus.retained_docs");
    shared_retained_entries_gauge_ = runtime_.shared_metrics->GetGauge(
        "shard.corpus.retained_term_entries");
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
  NIDC_RETURN_NOT_OK(
      tenant->Boot(std::make_unique<Corpus>(), /*fresh=*/true));
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

  Result<LoadedCorpus> loaded = LoadTenantCorpus(env, dir);
  if (!loaded.ok()) return loaded.status();

  std::unique_ptr<Tenant> tenant(
      new Tenant(name, dir, *config, runtime));
  NIDC_RETURN_NOT_OK(
      tenant->Boot(std::move(loaded->corpus), /*fresh=*/false));
  tenant->corpus_bytes_ = loaded->bytes;
  tenant->corpus_recovery_ = loaded->recovery;
  Result<std::unique_ptr<WalWriter>> index =
      OpenIndex(env, dir, *loaded, *tenant->corpus_);
  if (index.ok()) {
    tenant->index_ = std::move(index).value();
  } else {
    tenant->index_failed_ = true;
  }
  // Only now: a rewrite above encodes the whole corpus.
  tenant->ReleaseStepped();
  tenant->PublishProgress();
  if (runtime.shared_metrics != nullptr) {
    runtime.shared_metrics
        ->GetCounter("shard.recovery.corpus_installed_docs")
        ->Increment(loaded->recovery.installed_docs);
    runtime.shared_metrics->GetCounter("shard.recovery.corpus_analyzed_docs")
        ->Increment(loaded->recovery.analyzed_docs);
  }
  return tenant;
}

Status Tenant::Boot(std::unique_ptr<Corpus> corpus, bool fresh) {
  corpus_ = std::move(corpus);

  IncrementalOptions options;
  options.kmeans.k = config_.k;
  options.kmeans.seed = config_.seed;
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
    // Times as corpus.tsv will read them back, so the live corpus, its
    // index and a re-parse of the file agree.
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
  const CorpusIndexSpan span = SpanFrom(*corpus_, corpus_bytes_);
  corpus_bytes_ += block.size();

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
  AppendIndex(SpanTo(span, *corpus_, corpus_bytes_, Crc32c(block)));
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
  if (stepped.ok()) ReleaseStepped();
  PublishProgress();
  return stepped;
}

void Tenant::AppendIndex(const CorpusIndexSpan& span) {
  if (index_failed_) return;
  Status st;
  if (index_ == nullptr) {
    // The first ingest into an empty corpus.tsv: truncate, since any
    // index left here describes other bytes.
    Result<std::unique_ptr<WalWriter>> log = WalWriter::Create(
        EnvOf(runtime_), dir_ + kIndexFile, WalSyncMode::kNone);
    if (log.ok()) {
      index_ = std::move(log).value();
    } else {
      st = log.status();
    }
  }
  if (st.ok()) {
    st = index_->AppendRecord(EncodeCorpusIndexRecord(*corpus_, span));
  }
  // Flushed, never synced: corpus.tsv stays the source of truth, and what
  // a crash takes from the index only costs the next reopen analysis.
  if (st.ok()) st = index_->Flush();
  if (!st.ok()) index_failed_ = true;
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
  // The index is a hint: failing to close it fails nothing.
  if (index_ != nullptr) index_->Close();
  if (shared_retained_gauge_ != nullptr) {
    shared_retained_gauge_->Add(-retained_published_);
    shared_retained_entries_gauge_->Add(-retained_entries_published_);
  }
  retained_published_ = 0.0;
  retained_entries_published_ = 0.0;
  return status;
}

Tenant::~Tenant() { Close(); }

std::string Tenant::StateDigest() const {
  return SerializeState(CaptureState(durable_->clusterer()));
}

void Tenant::PublishProgress() {
  now_ = batcher_.cursor();
  steps_applied_ = durable_->applied_steps();
  const auto retained = static_cast<double>(corpus_->docs().size());
  const auto entries = static_cast<double>(corpus_->retained_term_entries());
  retained_gauge_->Set(retained);
  retained_entries_gauge_->Set(entries);
  if (shared_retained_gauge_ != nullptr) {
    shared_retained_gauge_->Add(retained - retained_published_);
    shared_retained_entries_gauge_->Add(entries -
                                        retained_entries_published_);
  }
  retained_published_ = retained;
  retained_entries_published_ = entries;
}

const RecoveryInfo& Tenant::recovery() const { return durable_->recovery(); }

}  // namespace nidc::shard
