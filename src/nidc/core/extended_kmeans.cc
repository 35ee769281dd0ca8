#include "nidc/core/extended_kmeans.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "nidc/core/clustering_index.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/core/rep_index.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/provenance.h"
#include "nidc/obs/trace.h"
#include "nidc/util/stopwatch.h"

namespace nidc {

Status ExtendedKMeansOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(delta >= 0.0)) return Status::InvalidArgument("delta must be >= 0");
  if (max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  return Status::OK();
}

namespace {

// Accumulates elapsed seconds into *acc on destruction; no clock reads at
// all when acc is null, so unprofiled runs pay nothing.
class ScopedSeconds {
 public:
  explicit ScopedSeconds(double* acc) : acc_(acc) {
    if (acc_ != nullptr) timer_.Restart();
  }
  ~ScopedSeconds() {
    if (acc_ != nullptr) *acc_ += timer_.ElapsedSeconds();
  }
  ScopedSeconds(const ScopedSeconds&) = delete;
  ScopedSeconds& operator=(const ScopedSeconds&) = delete;

 private:
  double* acc_;
  Stopwatch timer_;
};

// Sampled variant for the per-document maintenance slices: timing every
// mutation costs two clock reads per document per sweep, which was the
// single largest line item in the instrumentation-overhead budget. One
// mutation in kStride is timed and the sum scaled back up on destruction —
// document order is uncorrelated with the stride phase, so the estimate
// stays within a few percent of the exhaustive sum at 1/kStride of the
// clock cost. A null sink samples nothing, exactly like ScopedSeconds.
class SampledSeconds {
 public:
  static constexpr uint32_t kStride = 16;

  explicit SampledSeconds(double* acc) : acc_(acc) {}
  ~SampledSeconds() {
    if (acc_ != nullptr) *acc_ += sampled_ * kStride;
  }
  SampledSeconds(const SampledSeconds&) = delete;
  SampledSeconds& operator=(const SampledSeconds&) = delete;

  /// Sink for one timed slice: the sampled accumulator on every
  /// kStride-th call, null (skip the clocks) otherwise.
  double* Next() {
    if (acc_ == nullptr) return nullptr;
    return (tick_++ % kStride) == 0 ? &sampled_ : nullptr;
  }

 private:
  double* acc_;
  double sampled_ = 0.0;
  uint32_t tick_ = 0;
};

// Shared per-document telemetry of one sweep iteration.
struct SweepCounters {
  size_t moves = 0;
  /// Documents that re-populated an empty cluster other than their own —
  /// the slot was handed to a new topic and minted a fresh stable id.
  size_t reseeds = 0;
};

// Per-slot provenance capture of a document's latest sweep decision,
// indexed by ctx.SlotOf(id) and overwritten every sweep — so after the
// loop the buffer holds exactly the run's settled decisions, flushed to
// the ProvenanceLog in one batch (no extra scoring pass). Gains are
// decision-bar relative: both floored at the sweeps' `> 0` outlier bar,
// so margin = best - runner_up is >= 0 and path-independent.
struct ProvCapture {
  int best = kUnassigned;
  int runner_up = kUnassigned;
  double best_gain = 0.0;
  double runner_up_gain = 0.0;
  obs::ProvenanceVerdict verdict = obs::ProvenanceVerdict::kOutlier;
  uint32_t iteration = 0;
};

// A run's event sink for its sweeps: each sweep stages its events in
// `staged` and flushes them through one EmitBatch, which empties the
// buffer but keeps its capacity for the next sweep.
struct SweepEvents {
  obs::EventLog* log;
  std::vector<obs::Event> staged;
};

// Emits the lifecycle events of one settled per-document decision: the
// move itself, the source cluster left empty (if any), and a reseeded
// empty slot (if the reseed branch fired). Cluster ids are read *after*
// the assignment — an emptied cluster keeps its id until reseeded, and a
// reseeded cluster's fresh id is exactly what the event should carry.
// Stages the events of one settled document into `buffer` — the sweeps
// flush the whole buffer through EventLog::EmitBatch once per sweep, so
// the per-document cost is plain stores instead of a mutex + clock read
// per move (which showed up in the instrumentation-overhead budget on
// first sweeps, where every document "moves" from unassigned).
void EmitSweepEvents(std::vector<obs::Event>* buffer,
                     const ClusterSet& clusters, DocId id, int previous,
                     int best, bool reseeded) {
  if (best == previous) return;
  // Each event is built in place: the buffer keeps its capacity across
  // sweeps, so this is the only write of its bytes before EmitBatch.
  obs::Event& moved = buffer->emplace_back();
  moved.type = obs::EventType::kDocMoved;
  moved.doc = id;
  if (previous != kUnassigned) {
    moved.from_cluster = clusters.cluster_id(static_cast<size_t>(previous));
  }
  if (best != kUnassigned) {
    moved.cluster_id = clusters.cluster_id(static_cast<size_t>(best));
  }
  if (previous != kUnassigned &&
      clusters.cluster(static_cast<size_t>(previous)).empty()) {
    obs::Event& emptied = buffer->emplace_back();
    emptied.type = obs::EventType::kClusterEmptied;
    emptied.cluster_id = clusters.cluster_id(static_cast<size_t>(previous));
  }
  if (reseeded && best != kUnassigned) {
    obs::Event& reseed = buffer->emplace_back();
    reseed.type = obs::EventType::kClusterReseeded;
    reseed.cluster_id = clusters.cluster_id(static_cast<size_t>(best));
  }
}

// One repetition sweep (§4.3 step 1) on the merge path — the reference
// every other path must reproduce bit-for-bit: every document is
// physically detached, the best gain over all clusters is found via Eq. 26
// from K independent sparse dot products against the representatives, and
// the document is re-attached to the argmax cluster — or put on the
// outlier list when no assignment increases any cluster's quality.
std::vector<DocId> SweepAssignMerge(const std::vector<DocId>& order,
                                    const SimilarityContext& ctx,
                                    AssignmentCriterion criterion,
                                    ClusterSet* clusters,
                                    SweepCounters* counters,
                                    SweepEvents* events,
                                    double* maintenance_seconds,
                                    std::vector<ProvCapture>* capture,
                                    uint32_t iteration) {
  std::vector<DocId> outliers;
  SampledSeconds maint_sampler(maintenance_seconds);
  for (DocId id : order) {
    const int previous = clusters->ClusterOf(id);
    bool reseeded = false;
    {
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Assign(id, kUnassigned, ctx);
    }
    int best = kUnassigned;
    double best_gain = 0.0;
    int runner_up = kUnassigned;
    double runner_up_gain = 0.0;
    for (size_t p = 0; p < clusters->num_clusters(); ++p) {
      const Cluster& c = clusters->cluster(p);
      const double gain = criterion == AssignmentCriterion::kGIncrease
                              ? c.GainInGIfAdded(id, ctx)
                              : c.GainIfAdded(id, ctx);
      if (gain > best_gain) {
        runner_up_gain = best_gain;
        runner_up = best;
        best_gain = gain;
        best = static_cast<int>(p);
      } else if (gain > runner_up_gain) {
        runner_up_gain = gain;
        runner_up = static_cast<int>(p);
      }
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[ctx.SlotOf(id)];
      pc.best_gain = best_gain;
      pc.runner_up = runner_up;
      pc.runner_up_gain = runner_up_gain;
    }
    if (best == kUnassigned) {
      // No assignment increases any cluster's quality. Before declaring the
      // document an outlier, let it (re)seed an empty cluster — otherwise a
      // singleton seed drains to the outlier list the moment it is swept
      // (removing it empties its own cluster, and an empty cluster's gain
      // is 0, never "> 0").
      for (size_t p = 0; p < clusters->num_clusters(); ++p) {
        if (clusters->cluster(p).empty()) {
          best = static_cast<int>(p);
          reseeded = true;
          break;
        }
      }
    }
    if (best == kUnassigned) {
      outliers.push_back(id);
    } else {
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Assign(id, best, ctx);
    }
    if (best != previous) {
      ++counters->moves;
      // A document handed back its own emptied cluster continues that
      // cluster's identity — only cross-cluster reseeds count.
      if (reseeded) ++counters->reseeds;
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[ctx.SlotOf(id)];
      pc.best = best;
      pc.verdict = reseeded ? obs::ProvenanceVerdict::kReseeded
                   : best == kUnassigned
                       ? obs::ProvenanceVerdict::kOutlier
                       : obs::ProvenanceVerdict::kAssigned;
      pc.iteration = iteration;
    }
    if (events != nullptr) {
      EmitSweepEvents(&events->staged, *clusters, id, previous, best,
                      reseeded);
    }
  }
  if (events != nullptr) events->log->EmitBatch(&events->staged);
  return outliers;
}

// The move-only sweep (kSlotted): scores every document against the flat
// CSR index *with its ψ still attached*. ScoreAllDetached folds the home
// cluster's detachment into the scan — scores[home] accumulates
// (c⃗_q − ψ)·ψ per term while the attached cross term T_att = c⃗_q·ψ is
// collected alongside — so the detached home statistics follow from the
// Eq. 25/26 identity:
//   cr' = cr − 2·T_att + self,   ss' = ss − self,   n' = n − 1,
// replaying the exact floating-point expressions Cluster::Remove would
// apply. Decisions are therefore bit-identical to the merge sweep's
// detach/score/re-attach loop, but clusters and postings are only mutated
// when a document actually moves; a document that stays put costs one
// scalar-cache replay (ReplayStay) and zero index work. A move takes its
// cross terms from the same scan (ClusterSet::Move), so no representative
// vector exists until the run ends.
std::vector<DocId> SweepAssignMoveOnly(const std::vector<DocId>& order,
                                       const SimilarityContext& ctx,
                                       AssignmentCriterion criterion,
                                       ClusterSet* clusters,
                                       SweepCounters* counters,
                                       SweepEvents* events,
                                       double* maintenance_seconds,
                                       std::vector<ProvCapture>* capture,
                                       uint32_t iteration) {
  std::vector<DocId> outliers;
  std::vector<double> t_scores;
  SampledSeconds maint_sampler(maintenance_seconds);
  const FlatRepIndex& index = clusters->flat_index();
  const size_t k = clusters->num_clusters();

  // The exact per-cluster gain expressions of the merge sweep.
  const auto gain_of = [criterion](const Cluster& c, double t) {
    return criterion == AssignmentCriterion::kGIncrease ? c.GainInGGivenT(t)
                                                        : c.GainGivenT(t);
  };
  const auto gain_detached = [criterion](double t, double n, double cr,
                                         double ss) {
    return criterion == AssignmentCriterion::kGIncrease
               ? Cluster::GainInGGivenTWith(t, n, cr, ss)
               : Cluster::GainGivenTWith(t, n, cr, ss);
  };

  for (DocId id : order) {
    const int previous = clusters->ClusterOf(id);
    bool reseeded = false;
    const SimilarityContext::Slot slot = ctx.SlotOf(id);

    // Score all clusters, deriving the home cluster's detached statistics
    // (the same expressions and rounding steps as Cluster::Remove) without
    // touching it.
    double t_attached = 0.0;
    double n_detached = 0.0;
    double cr_detached = 0.0;
    double ss_detached = 0.0;
    if (previous == kUnassigned) {
      index.ScoreAll(ctx, slot, &t_scores);
    } else {
      index.ScoreAllDetached(ctx, slot, static_cast<size_t>(previous),
                             &t_scores, &t_attached);
      const Cluster& home = clusters->cluster(static_cast<size_t>(previous));
      const double self = ctx.SelfSimAt(slot);
      n_detached = static_cast<double>(home.size() - 1);
      cr_detached = home.cr_self() + (-2.0 * t_attached + self);
      ss_detached = home.ss() - self;
    }
    int best = kUnassigned;
    double best_gain = 0.0;
    int runner_up = kUnassigned;
    double runner_up_gain = 0.0;
    for (size_t p = 0; p < k; ++p) {
      double gain;
      if (static_cast<int>(p) == previous) {
        // A home cluster the detachment would empty is an empty cluster:
        // its gain is 0, never "> 0" (merge sweep: Remove triggered Clear).
        if (n_detached < 1.0) continue;
        gain = gain_detached(t_scores[p], n_detached, cr_detached,
                             ss_detached);
      } else {
        const Cluster& c = clusters->cluster(p);
        if (c.empty()) continue;
        gain = gain_of(c, t_scores[p]);
      }
      if (gain > best_gain) {
        runner_up_gain = best_gain;
        runner_up = best;
        best_gain = gain;
        best = static_cast<int>(p);
      } else if (gain > runner_up_gain) {
        runner_up_gain = gain;
        runner_up = static_cast<int>(p);
      }
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[slot];
      pc.best_gain = best_gain;
      pc.runner_up = runner_up;
      pc.runner_up_gain = runner_up_gain;
    }

    if (best == kUnassigned) {
      // Empty-cluster reseed, with "empty" evaluated as the merge sweep
      // saw it mid-detachment: the home cluster counts as empty when the
      // document was its only member.
      for (size_t p = 0; p < k; ++p) {
        const bool empty = static_cast<int>(p) == previous
                               ? n_detached == 0.0
                               : clusters->cluster(p).empty();
        if (empty) {
          best = static_cast<int>(p);
          reseeded = true;
          break;
        }
      }
    }

    if (best == kUnassigned) {
      if (previous != kUnassigned) {
        ScopedSeconds maint(maint_sampler.Next());
        clusters->Move(id, kUnassigned, t_attached, 0.0, ctx);
      }
      outliers.push_back(id);
    } else if (best == previous) {
      ScopedSeconds maint(maint_sampler.Next());
      if (n_detached == 0.0) {
        // Re-seeding its own emptied cluster: replay the physical
        // round-trip so Clear() purges accumulated drift exactly as the
        // merge sweep does. The emptied cluster's representative is empty,
        // so the re-attach's cross term is 0.
        clusters->Move(id, kUnassigned, t_attached, 0.0, ctx);
        clusters->Move(id, best, 0.0, 0.0, ctx);
      } else {
        clusters->ReplayStay(id, static_cast<size_t>(best), t_attached,
                             t_scores[static_cast<size_t>(best)], ctx);
      }
    } else {
      // An actual move, with the scanned cross terms: the dot products
      // Cluster::Remove/Add would compute, bit for bit but for a weight
      // the index snapped to 0 when its last contributor left.
      ScopedSeconds maint(maint_sampler.Next());
      clusters->Move(id, best, t_attached,
                     t_scores[static_cast<size_t>(best)], ctx);
    }
    if (best != previous) {
      ++counters->moves;
      if (reseeded) ++counters->reseeds;
    }
    if (capture != nullptr) {
      ProvCapture& pc = (*capture)[slot];
      pc.best = best;
      pc.verdict = reseeded ? obs::ProvenanceVerdict::kReseeded
                   : best == kUnassigned
                       ? obs::ProvenanceVerdict::kOutlier
                       : obs::ProvenanceVerdict::kAssigned;
      pc.iteration = iteration;
    }
    if (events != nullptr) {
      EmitSweepEvents(&events->staged, *clusters, id, previous, best,
                      reseeded);
    }
  }
  if (events != nullptr) events->log->EmitBatch(&events->staged);
  return outliers;
}

std::vector<DocId> SweepAssign(const std::vector<DocId>& order,
                               const SimilarityContext& ctx,
                               AssignmentCriterion criterion,
                               ClusterSet* clusters, SweepCounters* counters,
                               SweepEvents* events,
                               double* maintenance_seconds,
                               std::vector<ProvCapture>* capture,
                               uint32_t iteration) {
  if (clusters->scoring() == ClusterScoring::kSlotted) {
    return SweepAssignMoveOnly(order, ctx, criterion, clusters, counters,
                               events, maintenance_seconds, capture,
                               iteration);
  }
  return SweepAssignMerge(order, ctx, criterion, clusters, counters, events,
                          maintenance_seconds, capture, iteration);
}

// The membership seed without its clusters that have no member in `ctx`,
// each surviving cluster keeping its stable id.
KMeansSeeds WithoutExpiredClusters(const KMeansSeeds& seeds,
                                   const SimilarityContext& ctx) {
  KMeansSeeds kept;
  for (size_t p = 0; p < seeds.memberships.size(); ++p) {
    const std::vector<DocId>& members = seeds.memberships[p];
    if (std::none_of(members.begin(), members.end(),
                     [&](DocId id) { return ctx.Contains(id); })) {
      continue;
    }
    kept.memberships.push_back(members);
    if (!seeds.cluster_ids.empty()) {
      kept.cluster_ids.push_back(p < seeds.cluster_ids.size()
                                     ? seeds.cluster_ids[p]
                                     : Cluster::kNoClusterId);
    }
  }
  return kept;
}

}  // namespace

Result<ClusteringResult> RunExtendedKMeans(
    const SimilarityContext& ctx, const std::vector<DocId>& docs,
    const ExtendedKMeansOptions& options,
    const std::optional<KMeansSeeds>& seeds) {
  NIDC_RETURN_NOT_OK(options.Validate());
  if (docs.empty()) {
    return Status::InvalidArgument("cannot cluster an empty document set");
  }
  for (DocId id : docs) {
    if (!ctx.Contains(id)) {
      return Status::InvalidArgument("document " + std::to_string(id) +
                                     " is not in the similarity context");
    }
  }

  NIDC_SPAN("kmeans.run");
  const size_t k = std::min(options.k, docs.size());
  const ClusterScoring scoring = options.scoring;
  ClusterSet clusters(k, scoring);
  Rng rng(options.seed);
  std::vector<DocId> outliers;
  obs::MetricsRegistry* metrics = options.metrics;
  KMeansProfile* profile = options.profile;
  // kmeans.score_gbps needs the phase split even when the caller only asked
  // for metrics — time into a local profile in that case.
  KMeansProfile local_profile;
  if (metrics != nullptr && profile == nullptr) profile = &local_profile;
  double* maintenance_seconds =
      profile == nullptr ? nullptr : &profile->maintenance_seconds;

  // Expiry can shrink the active set below the previous step's cluster
  // count. A seed cluster with no member left in the context carries
  // nothing forward; without those at most k = min(K, active) remain.
  std::optional<KMeansSeeds> trimmed;
  if (seeds && seeds->memberships.size() > k) {
    trimmed = WithoutExpiredClusters(*seeds, ctx);
  }
  const KMeansSeeds* seed = trimmed ? &*trimmed : seeds ? &*seeds : nullptr;

  // --- Initial process ---
  const auto run_initial_process = [&]() -> Status {
    NIDC_SPAN("kmeans.seed");
    ScopedSeconds seed_timer(profile == nullptr ? nullptr
                                                : &profile->seed_seconds);
    if (seed != nullptr) {
      // §5.2 step 3: documents keep their previous cluster.
      if (seed->memberships.size() > k) {
        return Status::InvalidArgument("membership seed has more clusters "
                                       "than k");
      }
      for (size_t p = 0; p < seed->memberships.size(); ++p) {
        for (DocId id : seed->memberships[p]) {
          if (ctx.Contains(id)) clusters.SeedMember(id, p);
        }
      }
    }
    // §4.3: select K documents randomly, form initial K clusters — also
    // when every seeded member has expired, since an empty cluster can
    // never attract documents (its avg_sim gain is 0). Such a restart
    // inherits no cluster ids.
    if (clusters.TotalAssigned() == 0) {
      seed = nullptr;
      size_t next = 0;
      for (size_t p : rng.SampleWithoutReplacement(docs.size(), k)) {
        clusters.SeedMember(docs[p], next++);
      }
    }
    // Seeding recorded memberships only: build the representatives, their
    // statistics and the postings once, from the members.
    clusters.RefreshAll(ctx);
    return Status::OK();
  };
  NIDC_RETURN_NOT_OK(run_initial_process());
  const size_t seeded_assigned = clusters.TotalAssigned();

  // Install stable cluster ids: seeded clusters inherit the previous run's
  // ids (the drift telemetry matches on them); random seeds — and seeded
  // runs that fell back to the random restart — mint fresh ones. From here
  // on, ClusterSet::Assign (Move) mints a fresh id whenever a sweep hands an
  // emptied slot to a new topic.
  static const std::vector<uint64_t> kNoSeedIds;
  const std::vector<uint64_t>& seed_ids =
      seed != nullptr ? seed->cluster_ids : kNoSeedIds;
  clusters.InstallIds(seed_ids, options.first_cluster_id);
  if (options.events != nullptr) {
    for (size_t p = 0; p < clusters.num_clusters(); ++p) {
      if (clusters.cluster(p).empty()) continue;
      if (p < seed_ids.size() && seed_ids[p] != Cluster::kNoClusterId) {
        continue;  // inherited identity, not a birth
      }
      obs::Event created;
      created.type = obs::EventType::kClusterCreated;
      created.cluster_id = clusters.cluster_id(p);
      options.events->Emit(created);
    }
  }

  // --- Repetition process ---
  std::vector<double> g_history;
  double g_old = clusters.G();
  g_history.push_back(g_old);

  static const std::vector<double> kSweepSecondsBuckets = {
      1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0};
  obs::Histogram* moves_per_sweep =
      metrics == nullptr
          ? nullptr
          : metrics->GetHistogram("kmeans.moves_per_sweep",
                                  {0, 1, 10, 100, 1000, 10000, 100000});
  obs::Histogram* sweep_seconds_hist =
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("kmeans.sweep_seconds",
                                                 kSweepSecondsBuckets);
  obs::Histogram* refresh_seconds_hist =
      metrics == nullptr ? nullptr
                         : metrics->GetHistogram("kmeans.refresh_seconds",
                                                 kSweepSecondsBuckets);
  const bool time_phases = metrics != nullptr || profile != nullptr;
  std::vector<DocId> order = docs;
  int iterations = 0;
  bool converged = false;
  size_t total_moves = 0;
  size_t total_reseeds = 0;
  // Slot-indexed provenance capture, overwritten every sweep; the final
  // sweep's contents are the run's settled decisions (flushed below).
  std::vector<ProvCapture> prov_capture;
  std::vector<ProvCapture>* capture = nullptr;
  if (options.provenance != nullptr) {
    prov_capture.resize(ctx.size());
    capture = &prov_capture;
  }
  SweepEvents sweep_events{options.events, {}};
  SweepEvents* events =
      options.events != nullptr ? &sweep_events : nullptr;
  Stopwatch phase_timer;
  while (iterations < options.max_iterations) {
    if (options.shuffle_each_iteration) rng.Shuffle(&order);
    SweepCounters counters;
    {
      NIDC_SPAN("kmeans.sweep");
      if (time_phases) phase_timer.Restart();
      outliers = SweepAssign(order, ctx, options.criterion, &clusters,
                             &counters, events, maintenance_seconds,
                             capture, static_cast<uint32_t>(iterations + 1));
      if (time_phases) {
        const double seconds = phase_timer.ElapsedSeconds();
        if (sweep_seconds_hist != nullptr) {
          sweep_seconds_hist->Observe(seconds);
        }
        if (profile != nullptr) profile->sweep_seconds += seconds;
      }
    }
    total_moves += counters.moves;
    total_reseeds += counters.reseeds;
    if (moves_per_sweep != nullptr) {
      moves_per_sweep->Observe(static_cast<double>(counters.moves));
    }
    ++iterations;
    // Step 2: recompute cluster representatives (also clears float drift).
    {
      NIDC_SPAN("kmeans.refresh");
      if (time_phases) phase_timer.Restart();
      clusters.RefreshAll(ctx);
      if (time_phases) {
        const double seconds = phase_timer.ElapsedSeconds();
        if (refresh_seconds_hist != nullptr) {
          refresh_seconds_hist->Observe(seconds);
        }
        if (profile != nullptr) profile->refresh_seconds += seconds;
      }
    }
    // Steps 3–4: G_new and the δ test.
    const double g_new = clusters.G();
    g_history.push_back(g_new);
    if (RelativeGChange(g_old, g_new) < options.delta) {
      converged = true;
      g_old = g_new;
      break;
    }
    g_old = g_new;
  }

  if (metrics != nullptr) {
    metrics->GetCounter("kmeans.runs")->Increment();
    metrics->GetCounter("kmeans.iterations")
        ->Increment(static_cast<uint64_t>(iterations));
    metrics
        ->GetHistogram("kmeans.iterations_per_run",
                       {1, 2, 3, 5, 8, 13, 21, 34, 50})
        ->Observe(static_cast<double>(iterations));
    if (converged) metrics->GetCounter("kmeans.converged")->Increment();
    metrics->GetCounter("kmeans.moves")->Increment(total_moves);
    metrics->GetCounter("kmeans.cluster_reseeds")->Increment(total_reseeds);
    metrics->GetCounter("kmeans.docs_swept")
        ->Increment(static_cast<uint64_t>(order.size()) *
                    static_cast<uint64_t>(iterations));
    metrics->GetCounter("kmeans.seeded_assigned")->Increment(seeded_assigned);
    metrics->GetCounter("kmeans.refresh_entries")
        ->Increment(clusters.refresh_entries());
    metrics->GetGauge("kmeans.outliers")
        ->Set(static_cast<double>(outliers.size()));
    metrics->GetCounter("kmeans.outliers_total")->Increment(outliers.size());
    metrics->GetGauge("kmeans.g_initial")->Set(g_history.front());
    metrics->GetGauge("kmeans.g_final")->Set(g_old);
    if (scoring == ClusterScoring::kSlotted) {
      // Counters are cumulative over the FlatRepIndex lifetime (one run) —
      // incrementing by the final values folds them into the registry.
      const FlatRepIndex::Stats& fis = clusters.flat_index().stats();
      metrics->GetCounter("rep_index.moves_applied")
          ->Increment(fis.moves_applied);
      metrics->GetCounter("rep_index.builds")->Increment(fis.builds);
      metrics->GetCounter("rep_index.tombstones")
          ->Increment(fis.tombstones_created);
      metrics->GetCounter("rep_index.tombstones_revived")
          ->Increment(fis.tombstones_revived);
      metrics->GetCounter("rep_index.delta_entries")
          ->Increment(fis.pairs_appended);
      metrics->GetCounter("rep_index.compactions")->Increment(fis.compactions);
      metrics->GetCounter("rep_index.arena_peak_entries")
          ->Increment(fis.arena_peak_entries);
      metrics->GetGauge("rep_index.live_entries")
          ->Set(static_cast<double>(fis.live_entries));
      metrics->GetGauge("rep_index.dead_entries")
          ->Set(static_cast<double>(fis.dead_entries));
      metrics->GetGauge("rep_index.terms")
          ->Set(static_cast<double>(ctx.num_local_terms()));
    }
  }

  if (profile != nullptr) profile->refresh_entries = clusters.refresh_entries();

  // Scoring-kernel telemetry: fill the profile from the flat index's scan
  // stats and export the kernel.* metric family.
  if (scoring == ClusterScoring::kSlotted && profile != nullptr) {
    const FlatRepIndex::ScanStats& ss = clusters.flat_index().scan_stats();
    profile->kernel = kernels::Active().name;
    profile->score_bytes = ss.bytes_scanned;
    profile->entries_scanned = ss.entries_scanned;
    profile->docs_scored = ss.docs_scored;
    const FlatRepIndex::Stats& fis = clusters.flat_index().stats();
    profile->arena_peak_entries = fis.arena_peak_entries;
    profile->arena_peak_growth = fis.arena_peak_growth;
    if (metrics != nullptr) {
      metrics
          ->GetGauge(std::string("kernel.dispatch.") + profile->kernel)
          ->Set(1.0);
      metrics->GetCounter("kernel.bytes_scanned")
          ->Increment(profile->score_bytes);
      metrics->GetCounter("kernel.entries_scanned")
          ->Increment(profile->entries_scanned);
      metrics->GetCounter("kernel.docs_scored")
          ->Increment(profile->docs_scored);
      metrics->GetGauge("kmeans.score_gbps")->Set(profile->score_gbps());
    }
  }

  // Flush the final sweep's per-slot captures as decision records, one
  // batch under one log lock. Cluster indices resolve to the stable ids
  // the slots carry *now* (end of run) — exactly the ids the result and
  // the event log report.
  if (options.provenance != nullptr) {
    std::vector<obs::DecisionRecord> records;
    records.reserve(docs.size());
    const char* kernel =
        scoring == ClusterScoring::kSlotted ? kernels::Active().name : "";
    const obs::ProvenancePath path = scoring == ClusterScoring::kSlotted
                                         ? obs::ProvenancePath::kSlotted
                                         : obs::ProvenancePath::kMerge;
    for (DocId id : docs) {
      const ProvCapture& pc = prov_capture[ctx.SlotOf(id)];
      obs::DecisionRecord record;
      record.doc = id;
      record.iteration = pc.iteration;
      record.verdict = pc.verdict;
      record.path = path;
      record.kernel = kernel;
      if (pc.best != kUnassigned) {
        record.cluster_id =
            clusters.cluster_id(static_cast<size_t>(pc.best));
      }
      if (pc.runner_up != kUnassigned) {
        record.runner_up_id =
            clusters.cluster_id(static_cast<size_t>(pc.runner_up));
      }
      record.best_gain = pc.best_gain;
      record.runner_up_gain = pc.runner_up_gain;
      record.margin = pc.best_gain - pc.runner_up_gain;
      records.push_back(record);
    }
    options.provenance->RecordBatch(records);
  }

  clusters.BuildRepresentatives(ctx);
  return ClusteringResult::FromClusterSet(std::move(clusters),
                                          std::move(outliers),
                                          std::move(g_history), iterations,
                                          converged);
}

}  // namespace nidc
