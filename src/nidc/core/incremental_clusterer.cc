#include "nidc/core/incremental_clusterer.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "nidc/obs/cluster_health.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/provenance.h"
#include "nidc/obs/trace.h"
#include "nidc/util/stopwatch.h"

namespace nidc {

namespace {

// Shared histogram bucket bounds for the per-step phase timings,
// constructed once instead of on every RecordStepMetrics call.
const std::vector<double>& SecondsBuckets() {
  static const std::vector<double> kSecondsBuckets = {1e-4, 1e-3, 1e-2, 0.1,
                                                      0.5,  1.0,  5.0,  30.0};
  return kSecondsBuckets;
}

// Publishes the per-step telemetry shared by the incremental and batch
// drivers: document churn, phase timings and model gauges (vocabulary
// size, tdw).
void RecordStepMetrics(obs::MetricsRegistry* metrics,
                       const ForgettingModel& model,
                       const StepResult& result) {
  if (metrics == nullptr) return;
  metrics->GetCounter("step.count")->Increment();
  metrics->GetCounter("step.docs_new")->Increment(result.num_new);
  metrics->GetCounter("step.docs_expired")->Increment(result.expired.size());
  metrics->GetGauge("step.active_docs")
      ->Set(static_cast<double>(result.num_active));
  metrics->GetGauge("step.expired")
      ->Set(static_cast<double>(result.expired.size()));
  if (!result.installed) {
    metrics->GetGauge("step.context_entries")
        ->Set(static_cast<double>(result.context_entries));
    metrics->GetGauge("step.context_bytes")
        ->Set(static_cast<double>(result.context_bytes));
  }
  const std::vector<double>& kSecondsBuckets = SecondsBuckets();
  metrics->GetHistogram("step.stats_seconds", kSecondsBuckets)
      ->Observe(result.stats_update_seconds);
  metrics->GetHistogram("step.clustering_seconds", kSecondsBuckets)
      ->Observe(result.clustering_seconds);
  metrics->GetGauge("term_stats.vocab_size")
      ->Set(static_cast<double>(model.NumTerms()));
  metrics->GetGauge("term_stats.tdw")->Set(model.TotalWeight());
}

// Registers the gauges only a K-means step sets, so a scrape taken before
// the first one (or after installed steps only) still lists them.
void RegisterContextGauges(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetGauge("step.context_entries");
  metrics->GetGauge("step.context_bytes");
}

// Copies the clustering digest into the step-level convenience fields.
void FillClusteringDigest(StepResult* result) {
  result->iterations = result->clustering.iterations;
  result->num_outliers = result->clustering.outliers.size();
  result->final_g = result->clustering.g;
}

// Translates a completed step into the obs-layer observation the health
// monitor consumes (non-empty clusters only; ids/vectors/memberships are
// copied, which is why the build is skipped when no monitor is attached).
// The monitor keeps the copied representatives as its drift baselines.
void FeedHealthMonitor(obs::ClusterHealthMonitor* health, uint64_t step,
                       const StepResult& result) {
  if (health == nullptr) return;
  obs::StepObservation observation;
  observation.step = step;
  observation.g = result.final_g;
  observation.num_active = result.num_active;
  observation.num_outliers = result.num_outliers;
  const ClusteringResult& clustering = result.clustering;
  for (size_t p = 0; p < clustering.clusters.size(); ++p) {
    if (clustering.clusters[p].empty()) continue;
    obs::ClusterObservation cluster;
    cluster.id = clustering.cluster_ids[p];
    cluster.representative = clustering.representatives[p];
    cluster.avg_sim = clustering.avg_sims[p];
    cluster.members.assign(clustering.clusters[p].begin(),
                           clustering.clusters[p].end());
    observation.clusters.push_back(std::move(cluster));
  }
  health->ObserveStep(std::move(observation));
}

// What the next step's seed and SerializeState read of a step's result,
// in fresh vectors: no representatives and no avg_sims.
ClusteringResult MembershipsOf(const ClusteringResult& clustering) {
  ClusteringResult kept;
  kept.clusters = clustering.clusters;
  kept.cluster_ids = clustering.cluster_ids;
  kept.next_cluster_id = clustering.next_cluster_id;
  kept.outliers = clustering.outliers;
  kept.g = clustering.g;
  kept.g_history = clustering.g_history;
  kept.iterations = clustering.iterations;
  kept.converged = clustering.converged;
  return kept;
}

}  // namespace

IncrementalClusterer::IncrementalClusterer(const Corpus* corpus,
                                           ForgettingParams params,
                                           IncrementalOptions options)
    : model_(corpus, params), options_(options) {
  RegisterContextGauges(options_.kmeans.metrics != nullptr
                            ? options_.kmeans.metrics
                            : options_.metrics);
}

Status IncrementalClusterer::ValidateStepInputs(
    const std::vector<DocId>& new_docs, DayTime tau) const {
  if (!std::isfinite(tau)) {
    return Status::InvalidArgument("step time must be finite");
  }
  if (tau < model_.now()) {
    return Status::InvalidArgument(
        "step time " + std::to_string(tau) + " precedes model time " +
        std::to_string(model_.now()));
  }
  std::unordered_set<DocId> batch;
  batch.reserve(new_docs.size());
  for (DocId id : new_docs) {
    if (id >= model_.corpus().size()) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " is beyond the corpus");
    }
    if (id < model_.corpus().first_retained()) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " has been released");
    }
    if (model_.IsActive(id)) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " is already active");
    }
    if (model_.corpus().doc(id).time > tau) {
      return Status::InvalidArgument(
          "document " + std::to_string(id) + " was acquired after step time " +
          std::to_string(tau));
    }
    if (!batch.insert(id).second) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " appears twice in the batch");
    }
  }
  if (last_result_ && last_result_->clusters.size() > options_.kmeans.k) {
    return Status::InvalidArgument(
        "previous clustering has " +
        std::to_string(last_result_->clusters.size()) +
        " clusters, more than k = " + std::to_string(options_.kmeans.k));
  }
  return Status::OK();
}

Result<StepResult> IncrementalClusterer::Step(
    const std::vector<DocId>& new_docs, DayTime tau,
    const ClusteringResult* logged) {
  NIDC_RETURN_NOT_OK(ValidateStepInputs(new_docs, tau));
  NIDC_SPAN("clusterer.step");
  StepResult result;
  if (options_.events != nullptr) options_.events->SetStep(step_count_);
  if (options_.provenance != nullptr) {
    options_.provenance->SetStep(step_count_);
  }

  // Phase 1: incremental statistics update (§5.1; §5.2 steps 1–2).
  Stopwatch stats_timer;
  {
    NIDC_SPAN("step.stats_update");
    model_.AdvanceTo(tau);
    model_.AddDocuments(new_docs);
    result.expired = model_.ExpireDocuments();
  }
  if (options_.events != nullptr) {
    for (DocId id : result.expired) {
      obs::Event expired;
      expired.type = obs::EventType::kDocExpired;
      expired.doc = id;
      options_.events->Emit(expired);
    }
  }
  result.num_new = new_docs.size();
  result.num_active = model_.num_active();
  result.stats_update_seconds = stats_timer.ElapsedSeconds();

  if (model_.num_active() == 0) {
    return Status::FailedPrecondition("no active documents to cluster");
  }

  // Phase 2: the logged clustering when it fits the active set, else
  // K-means seeded from the previous result (§5.2 step 3).
  Stopwatch cluster_timer;
  result.installed = logged != nullptr && IsPartitionOfActive(*logged);
  if (result.installed) {
    result.clustering.clusters = logged->clusters;
    result.clustering.outliers = logged->outliers;
    result.clustering.g = logged->g;
    result.clustering.iterations = logged->iterations;
    result.clustering.converged = logged->converged;
  } else {
    Result<ClusteringResult> clustering = RunKMeans(&result);
    if (!clustering.ok()) return clustering.status();
    result.clustering = std::move(clustering).value();
  }
  result.clustering_seconds = cluster_timer.ElapsedSeconds();

  FillClusteringDigest(&result);
  RecordStepMetrics(options_.kmeans.metrics != nullptr
                        ? options_.kmeans.metrics
                        : options_.metrics,
                    model_, result);
  if (!result.installed) {
    FeedHealthMonitor(options_.health, step_count_, result);
  }
  last_result_ = MembershipsOf(result.clustering);
  ++step_count_;
  return result;
}

Result<ClusteringResult> IncrementalClusterer::RunKMeans(
    StepResult* result) const {
  std::optional<SimilarityContext> ctx;
  {
    NIDC_SPAN("step.context_build");
    ctx.emplace(model_);
  }
  result->context_entries = ctx->num_entries();
  result->context_bytes = ctx->bytes();
  std::optional<KMeansSeeds> seeds;
  ExtendedKMeansOptions kmeans = options_.kmeans;
  // Vary the random-seed stream per step so repeated random inits differ.
  kmeans.seed = options_.kmeans.seed + step_count_;
  if (kmeans.metrics == nullptr) kmeans.metrics = options_.metrics;
  if (kmeans.events == nullptr) kmeans.events = options_.events;
  if (kmeans.provenance == nullptr) kmeans.provenance = options_.provenance;
  if (last_result_) {
    // Surviving clusters keep their stable ids; the run mints fresh ones
    // from where the previous run stopped, so ids stay globally monotone.
    seeds = KMeansSeeds{last_result_->clusters, last_result_->cluster_ids};
    kmeans.first_cluster_id = last_result_->next_cluster_id;
  }
  return RunExtendedKMeans(*ctx, model_.active_docs(), kmeans, seeds);
}

bool IncrementalClusterer::IsPartitionOfActive(
    const ClusteringResult& logged) const {
  const size_t active = model_.num_active();
  if (logged.clusters.size() != std::min(options_.kmeans.k, active)) {
    return false;
  }
  std::vector<bool> placed(model_.corpus().size(), false);
  size_t num_placed = 0;
  const auto place = [&](const std::vector<DocId>& ids) {
    for (DocId id : ids) {
      if (id >= placed.size() || placed[id] || !model_.IsActive(id)) {
        return false;
      }
      placed[id] = true;
      ++num_placed;
    }
    return true;
  };
  for (const std::vector<DocId>& members : logged.clusters) {
    if (!place(members)) return false;
  }
  return place(logged.outliers) && num_placed == active;
}

Status IncrementalClusterer::CheckRestoredMembers() const {
  // With no active documents the result is one whose step found the
  // window empty; nothing will be seeded from it.
  if (!last_result_ || model_.num_active() == 0) return Status::OK();
  for (const std::vector<DocId>& members : last_result_->clusters) {
    for (DocId id : members) {
      if (!model_.IsActive(id)) {
        return Status::InvalidArgument(
            "restored cluster references inactive document " +
            std::to_string(id));
      }
    }
  }
  return Status::OK();
}

Status IncrementalClusterer::RestoreExact(
    const ExactModelState& model_state, std::optional<ClusteringResult> last,
    uint64_t step_count) {
  NIDC_RETURN_NOT_OK(model_.RestoreExact(model_state));
  last_result_ = std::move(last);
  NIDC_RETURN_NOT_OK(CheckRestoredMembers());
  step_count_ = step_count;
  return Status::OK();
}

BatchClusterer::BatchClusterer(const Corpus* corpus, ForgettingParams params,
                               ExtendedKMeansOptions kmeans)
    : model_(corpus, params), kmeans_(kmeans) {
  RegisterContextGauges(kmeans_.metrics);
}

Result<StepResult> BatchClusterer::Run(const std::vector<DocId>& docs,
                                       DayTime tau) {
  NIDC_SPAN("clusterer.batch_run");
  StepResult result;

  // Phase 1: from-scratch statistics computation over every document.
  Stopwatch stats_timer;
  {
    NIDC_SPAN("step.stats_update");
    model_.RebuildFromScratch(docs, tau);
    result.expired = model_.ExpireDocuments();
  }
  result.num_new = docs.size();
  result.num_active = model_.num_active();
  result.stats_update_seconds = stats_timer.ElapsedSeconds();

  if (model_.num_active() == 0) {
    return Status::FailedPrecondition("no active documents to cluster");
  }

  // Phase 2: clustering from a random start.
  Stopwatch cluster_timer;
  std::optional<SimilarityContext> ctx;
  {
    NIDC_SPAN("step.context_build");
    ctx.emplace(model_);
  }
  result.context_entries = ctx->num_entries();
  result.context_bytes = ctx->bytes();
  Result<ClusteringResult> clustering =
      RunExtendedKMeans(*ctx, model_.active_docs(), kmeans_);
  if (!clustering.ok()) return clustering.status();
  result.clustering_seconds = cluster_timer.ElapsedSeconds();

  result.clustering = std::move(clustering).value();
  FillClusteringDigest(&result);
  RecordStepMetrics(kmeans_.metrics, model_, result);
  return result;
}

}  // namespace nidc
