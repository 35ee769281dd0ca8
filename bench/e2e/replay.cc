#include "replay.h"

#include <chrono>
#include <filesystem>
#include <memory>

#include "nidc/core/state_io.h"
#include "nidc/corpus/stream.h"
#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/shard/ingest.h"
#include "nidc/store/durable_clusterer.h"

namespace nidc::e2e {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Tenant::Boot's clusterer options, with one K-means thread: results are
// bit-identical for every thread count, and the replay is the serial
// baseline.
IncrementalOptions ClustererOptions(const shard::TenantConfig& config) {
  IncrementalOptions options;
  options.kmeans.k = config.k;
  options.kmeans.seed = config.seed;
  options.kmeans.num_threads = 1;
  return options;
}

}  // namespace

Result<ReplayResult> ReplayLayers(const std::string& dir,
                                  const std::vector<ReplayTenant>& tenants,
                                  uint64_t checkpoint_every,
                                  WalSyncMode wal_sync,
                                  std::vector<Span>* spans) {
  Env* env = Env::Default();
  NIDC_RETURN_NOT_OK(env->CreateDir(dir));
  ReplayResult out;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const ReplayTenant& tenant = tenants[t];
    const double tenant_start = Now();
    const std::string tenant_dir = dir + "/" + tenant.name;
    NIDC_RETURN_NOT_OK(env->CreateDir(tenant_dir));
    const auto span = [&](const char* name, double start, double end) {
      if (spans != nullptr) {
        spans->push_back({name, 2, static_cast<int>(t), start, end - start});
      }
    };

    // The same telemetry a Tenant attaches, so per-step costs include it.
    obs::MetricsRegistry metrics;
    obs::EventLog events(256, &metrics);
    obs::ClusterHealthOptions health_options;
    health_options.metrics = &metrics;
    obs::ClusterHealthMonitor health(health_options);
    KMeansProfile profile;
    IncrementalOptions options = ClustererOptions(tenant.config);
    options.kmeans.profile = &profile;
    options.metrics = &metrics;
    options.events = &events;
    options.health = &health;
    DurableOptions durable_options;
    durable_options.dir = tenant_dir + "/store";
    durable_options.checkpoint_every = checkpoint_every;
    durable_options.wal_sync = wal_sync;
    durable_options.metrics = &metrics;

    auto corpus = std::make_unique<Corpus>();
    Result<std::unique_ptr<DurableClusterer>> durable = DurableClusterer::Open(
        corpus.get(), tenant.config.params, options, durable_options);
    if (!durable.ok()) return durable.status();
    Result<std::unique_ptr<WritableFile>> corpus_file =
        env->NewWritableFile(tenant_dir + "/corpus.tsv", /*truncate=*/true);
    if (!corpus_file.ok()) return corpus_file.status();
    TimeBatcher batcher(tenant.config.start_time, tenant.config.step_days);

    const auto step_windows =
        [&](std::vector<DocumentBatch>& closed) -> Status {
      for (const DocumentBatch& window : closed) {
        profile = KMeansProfile{};
        const double start = Now();
        Result<StepResult> result = (*durable)->Step(window.docs, window.end);
        const double end = Now();
        if (!result.ok()) {
          // Tenant::StepWindows skips a quiet day before any document.
          if (result.status().code() == StatusCode::kFailedPrecondition &&
              window.docs.empty()) {
            continue;
          }
          return result.status();
        }
        span("step", start, end);
        out.stats_ms.push_back(result->stats_update_seconds * 1e3);
        out.kmeans_ms.push_back(result->clustering_seconds * 1e3);
        out.seed_ms.push_back(profile.seed_seconds * 1e3);
        out.score_ms.push_back(profile.score_seconds() * 1e3);
        out.maintenance_ms.push_back(profile.maintenance_seconds * 1e3);
        out.refresh_ms.push_back(profile.refresh_seconds * 1e3);
        out.iterations.push_back(result->iterations);
        out.active_docs.push_back(static_cast<double>(result->num_active));
      }
      closed.clear();
      return Status::OK();
    };

    std::vector<DocumentBatch> closed;
    for (const std::string* body : tenant.bodies) {
      const double t0 = Now();
      Result<std::vector<RawDocument>> docs = shard::ParseIngestJsonl(*body);
      if (!docs.ok()) return docs.status();
      if (docs->empty()) continue;
      const double t1 = Now();
      // Tenant::Ingest's corpus.tsv block: sanitized TSV lines.
      std::string block;
      for (RawDocument& doc : *docs) {
        doc.text = shard::SanitizeText(doc.text);
        doc.source = shard::SanitizeText(doc.source);
        block += FormatRawDocument(doc);
        block += '\n';
      }
      NIDC_RETURN_NOT_OK((*corpus_file)->Append(block));
      const double t2 = Now();
      NIDC_RETURN_NOT_OK((*corpus_file)->Sync());
      const double t3 = Now();
      double analyze = 0.0;
      double batch = 0.0;
      for (const RawDocument& doc : *docs) {
        const double a0 = Now();
        const DocId id =
            corpus->AddText(doc.text, doc.time, doc.topic, doc.source);
        const double a1 = Now();
        NIDC_RETURN_NOT_OK(batcher.Add(id, doc.time, &closed));
        batch += Now() - a1;
        analyze += a1 - a0;
      }
      const double t4 = Now();
      const double n = static_cast<double>(docs->size());
      out.docs += docs->size();
      out.decode_us_per_doc.push_back((t1 - t0) * 1e6 / n);
      out.append_us.push_back((t2 - t1) * 1e6);
      out.sync_us.push_back((t3 - t2) * 1e6);
      out.analyze_us_per_doc.push_back(analyze * 1e6 / n);
      out.batcher_us.push_back(batch * 1e6);
      span("decode", t0, t1);
      span("append", t1, t2);
      span("sync", t2, t3);
      span("analyze", t3, t4);
      NIDC_RETURN_NOT_OK(step_windows(closed));
    }
    batcher.FlushUntil(tenant.flush_until, &closed);
    NIDC_RETURN_NOT_OK(step_windows(closed));
    out.digests.push_back(SerializeState(CaptureState((*durable)->clusterer())));
    out.certified += metrics.GetCounter("kernel.quantized_certified")->Value();
    out.fallbacks += metrics.GetCounter("kernel.quantized_fallbacks")->Value();
    out.seconds += Now() - tenant_start;

    // Reopen the directory as a crash right now would leave it: corpus.tsv
    // and every WAL record are synced, so a copy taken before Close (whose
    // final checkpoint would empty the WAL tail) is that state.
    const std::string reopen_dir = tenant_dir + ".reopen";
    std::error_code copy_error;
    std::filesystem::copy(tenant_dir, reopen_dir,
                          std::filesystem::copy_options::recursive,
                          copy_error);
    if (copy_error) return Status::IOError(copy_error.message());
    NIDC_RETURN_NOT_OK((*durable)->Close());
    NIDC_RETURN_NOT_OK((*corpus_file)->Close());
    const double r0 = Now();
    Result<std::unique_ptr<Corpus>> loaded =
        LoadCorpus(reopen_dir + "/corpus.tsv");
    if (!loaded.ok()) return loaded.status();
    const double r1 = Now();
    DurableOptions reopen_options;
    reopen_options.dir = reopen_dir + "/store";
    reopen_options.checkpoint_every = checkpoint_every;
    reopen_options.wal_sync = wal_sync;
    Result<std::unique_ptr<DurableClusterer>> reopened =
        DurableClusterer::Open(loaded->get(), tenant.config.params,
                               ClustererOptions(tenant.config),
                               reopen_options);
    if (!reopened.ok()) return reopened.status();
    const double r2 = Now();
    out.load_s += r1 - r0;
    out.open_s += r2 - r1;
    span("reopen.load_corpus", r0, r1);
    span("reopen.open_store", r1, r2);
  }
  return out;
}

}  // namespace nidc::e2e
