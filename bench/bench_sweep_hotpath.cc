// Hot-path benchmark for the extended K-means sweep: serial merge scoring
// vs the slotted move-only sweep (flat CSR index + algebraic detachment),
// the latter across scoring kernels.
//
// Configurations running the same clustering problem:
//   merge            scoring=kMerge (the per-cluster reference path)
//   slotted-scalar   slotted sweep, scalar kernel
//   slotted          slotted sweep, dispatched kernel (the best this
//                    host runs, or the one NIDC_KERNEL pins)
// All configurations must produce identical clusterings (same memberships,
// same outliers, same G trajectory) — the bench verifies this and exits
// non-zero on a mismatch. Per-phase timings (seed / score / index
// maintenance / refresh) are collected through KMeansProfile, which also
// carries the refresh work (ψ entries summed into representatives) and the
// kernel telemetry (bytes streamed, achieved GB/s). An
// incremental stream replay emits a BENCH_sweep_hotpath.json trajectory.
//
// It also measures the observability overhead: the same clustering run
// with the full telemetry stack `nidc_cli stream` attaches
// (MetricsRegistry, EventLog, PhaseProfiler, ProvenanceLog,
// TimeSeriesStore, RequestTracer, SloEngine) vs the default null registry
// (median of paired back-to-back repetitions).
//
// Env knobs:
//   NIDC_SWEEP_SCALE   corpus scale (1.0 = paper-scale 7,578 docs)
//   NIDC_SWEEP_K       number of clusters (default 32)
//   NIDC_REQUIRE_SPEEDUP  if set to a positive value, exit non-zero unless
//                         the slotted configuration achieves that
//                         total-time speedup over merge
//   NIDC_REQUIRE_SLOTTED_SPEEDUP  if set to a positive value, exit
//                         non-zero unless the serial slotted sweep
//                         achieves that cluster-time speedup over merge
//   NIDC_MAX_INSTRUMENTED_OVERHEAD  if set to a positive value, exit
//                         non-zero when the instrumented run is more than
//                         that many percent slower than the null-registry
//                         run (the guard CI runs with 3)
//   NIDC_BENCH_JSON_DIR   output directory for the JSON file (default ".")

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/obs/event_log.h"
#include "nidc/obs/metrics.h"
#include "nidc/obs/profiler.h"
#include "nidc/obs/provenance.h"
#include "nidc/obs/reqtrace.h"
#include "nidc/obs/slo.h"
#include "nidc/obs/timeseries.h"

namespace nidc::bench {
namespace {

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

struct Config {
  const char* name;
  ClusterScoring scoring;
  kernels::Kind kernel = kernels::Kind::kScalar;
  int reps = 1;  // timed repetitions, fastest kept (output is identical)
};

struct Timing {
  double context_seconds = 0.0;
  double cluster_seconds = 0.0;
  KMeansProfile profile;
  double total() const { return context_seconds + cluster_seconds; }
};

struct BatchRun {
  Timing timing;
  ClusteringResult result;
};

/// The kernel the runtime dispatch picked before any config re-selected
/// one: the best this host runs, or the one NIDC_KERNEL pins.
kernels::Kind DispatchedKind() {
  static const kernels::Kind kind = kernels::Active().kind;
  return kind;
}

void ApplyConfig(const Config& config, ExtendedKMeansOptions* kmeans) {
  kmeans->scoring = config.scoring;
  kernels::Select(config.kernel);
}

// Instrumented-vs-null overhead of the *full* observability stack on the
// slotted configuration: a registry, event log, phase profiler,
// provenance log, time-series store, request tracer and SLO engine all
// attached (with a post-run ObserveStep and a per-step request trace +
// SLO evaluation, as the stream driver issues), against everything null.
// The telemetry objects are constructed once and live across all
// repetitions, exactly like a long-running stream: the gate measures the
// steady-state per-step cost, not the one-time ring/series allocations a
// real deployment pays once over thousands of steps.
//
// The estimator is the median of *paired* differences: each repetition
// times one null and one instrumented run back-to-back (alternating which
// goes first) and keeps their delta. Pairing cancels the slow drift —
// frequency scaling, scheduling luck — that made independent min-of-N
// sides diverge by several percent on a multi-core run whose true
// overhead is well under one percent; the median then discards the
// occasional rep a descheduling spike lands on. `reps` <= 0 sizes the
// pair count to a fixed wall budget from the measured warm-up pair.
// Returns the overhead in percent (negative = within noise, faster).
double MeasureInstrumentationOverhead(const ForgettingModel& model,
                                      const std::vector<DocId>& docs,
                                      ExtendedKMeansOptions kmeans,
                                      int reps) {
  kmeans.scoring = ClusterScoring::kSlotted;
  kernels::Select(DispatchedKind());
  // The context build is telemetry-independent — keeping it outside the
  // timed section keeps the overhead ratio about the clustering alone.
  SimilarityContext ctx(model);
  obs::MetricsRegistry registry;
  obs::EventLog events(4096, &registry);
  obs::PhaseProfiler::Options profiler_options;
  profiler_options.metrics = &registry;
  obs::PhaseProfiler profiler(profiler_options);
  obs::ProvenanceLog provenance(4096, &registry);
  obs::TimeSeriesStore::Options ts_options;
  ts_options.metrics = &registry;
  ts_options.events = &events;
  obs::TimeSeriesStore timeseries(ts_options);
  obs::SloEngine::Options slo_options;
  slo_options.metrics = &registry;
  slo_options.events = &events;
  obs::SloEngine slo(slo_options);
  obs::RequestTracer::Options reqtrace_options;
  reqtrace_options.metrics = &registry;
  reqtrace_options.on_complete = [&slo](const std::string& tenant,
                                        double e2e_seconds,
                                        double now_seconds) {
    slo.ObserveLatency(tenant, e2e_seconds, now_seconds);
  };
  obs::RequestTracer reqtracer(reqtrace_options);
  uint64_t step = 0;
  const auto run_once = [&](bool instrumented) {
    ExtendedKMeansOptions options = kmeans;
    options.metrics = instrumented ? &registry : nullptr;
    options.events = instrumented ? &events : nullptr;
    options.provenance = instrumented ? &provenance : nullptr;
    obs::ScopedProfilerInstall install_profiler(instrumented ? &profiler
                                                             : nullptr);
    if (instrumented) profiler.SetStep(step);
    Stopwatch timer;
    // Per-step request trace, stamped exactly like the stream driver's:
    // mint + begin + ingest/window-close, scope the step, complete it.
    obs::TraceContext req_trace;
    if (instrumented) {
      req_trace = reqtracer.Mint();
      reqtracer.Begin(req_trace, "bench");
      reqtracer.RecordStage(req_trace, obs::Stage::kIngest);
      reqtracer.RecordStage(req_trace, obs::Stage::kWindowClose);
    }
    Result<ClusteringResult> result = [&] {
      obs::RequestTracer::StepScope scope(
          instrumented ? &reqtracer : nullptr,
          instrumented ? std::vector<obs::TraceContext>{req_trace}
                       : std::vector<obs::TraceContext>{});
      return RunExtendedKMeans(ctx, docs, options);
    }();
    if (instrumented) {
      reqtracer.RecordStage(req_trace, obs::Stage::kStep);
      timeseries.ObserveStep(step);
      slo.Evaluate(obs::RequestTracer::NowSeconds());
      ++step;
    }
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "overhead run failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return seconds;
  };
  // Warm-up, untimed — both sides, so the instrumented side's first-touch
  // allocations stay out of the gate. The pair also calibrates the
  // repetition count: the median's spread shrinks as 1/sqrt(reps), so
  // small (CI-scale) runs buy precision with more pairs while paper-scale
  // runs stay inside a fixed wall budget.
  Stopwatch pair_timer;
  run_once(false);
  run_once(true);
  const double pair_seconds = pair_timer.ElapsedSeconds();
  if (reps <= 0) {
    constexpr double kBudgetSeconds = 8.0;
    const double fit = kBudgetSeconds / std::max(pair_seconds, 1e-6);
    reps = static_cast<int>(std::min(201.0, std::max(9.0, fit)));
    reps |= 1;  // odd count: the median is a single middle element
  }
  std::vector<double> deltas;
  std::vector<double> null_times;
  deltas.reserve(static_cast<size_t>(reps));
  null_times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    double null_s;
    double instr_s;
    if (r % 2 == 0) {
      null_s = run_once(false);
      instr_s = run_once(true);
    } else {
      instr_s = run_once(true);
      null_s = run_once(false);
    }
    deltas.push_back(instr_s - null_s);
    null_times.push_back(null_s);
  }
  const auto median = [](std::vector<double>* values) {
    const size_t mid = values->size() / 2;
    std::nth_element(values->begin(), values->begin() + mid, values->end());
    return (*values)[mid];
  };
  const double delta = median(&deltas);
  const double base = median(&null_times);
  return delta / std::max(base, 1e-12) * 100.0;
}

BatchRun RunBatch(const ForgettingModel& model,
                  const std::vector<DocId>& docs, const Config& config,
                  ExtendedKMeansOptions kmeans) {
  ApplyConfig(config, &kmeans);
  BatchRun run;
  Stopwatch ctx_timer;
  SimilarityContext ctx(model);
  run.timing.context_seconds = ctx_timer.ElapsedSeconds();
  // The clustering is deterministic per config, so the timed section runs
  // `reps` times and the fastest repetition is kept: the slotted sweeps
  // finish in tens of milliseconds, where single-shot scheduler noise on a
  // small runner would otherwise dominate the reported ratios.
  for (int r = 0; r < std::max(config.reps, 1); ++r) {
    KMeansProfile profile;
    ExtendedKMeansOptions options = kmeans;
    options.profile = &profile;
    Stopwatch cluster_timer;
    auto result = RunExtendedKMeans(ctx, docs, options);
    const double seconds = cluster_timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "[%s] clustering failed: %s\n", config.name,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (r == 0 || seconds < run.timing.cluster_seconds) {
      run.timing.cluster_seconds = seconds;
      run.timing.profile = profile;
      run.result = std::move(result).value();
    }
  }
  return run;
}

bool SameClustering(const ClusteringResult& a, const ClusteringResult& b,
                    const char* name) {
  bool ok = true;
  if (a.clusters != b.clusters) {
    std::fprintf(stderr, "MISMATCH [%s]: memberships differ\n", name);
    ok = false;
  }
  if (a.outliers != b.outliers) {
    std::fprintf(stderr, "MISMATCH [%s]: outlier lists differ\n", name);
    ok = false;
  }
  if (a.g_history.size() != b.g_history.size()) {
    std::fprintf(stderr, "MISMATCH [%s]: G history lengths differ\n", name);
    ok = false;
  } else {
    for (size_t i = 0; i < a.g_history.size(); ++i) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(a.g_history[i]));
      if (std::fabs(a.g_history[i] - b.g_history[i]) > tol) {
        std::fprintf(stderr, "MISMATCH [%s]: G[%zu] %.17g vs %.17g\n", name,
                     i, a.g_history[i], b.g_history[i]);
        ok = false;
      }
    }
  }
  return ok;
}

// One stream step's timings for the trajectory file.
struct StepTrace {
  int step = 0;
  size_t active = 0;
  double merge_seconds = 0.0;
  double fast_seconds = 0.0;
};

void WriteJson(const std::string& path, double scale, size_t k,
               size_t active_docs, size_t hw_threads,
               const char* fast_config,
               const std::vector<std::pair<Config, Timing>>& batch,
               const std::vector<StepTrace>& trajectory,
               double speedup_fast_vs_merge,
               double speedup_slotted_vs_merge,
               double speedup_kernel_vs_scalar) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sweep_hotpath\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"k\": %zu,\n", k);
  std::fprintf(f, "  \"active_docs\": %zu,\n", active_docs);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw_threads);
  std::fprintf(f, "  \"fast_config\": \"%s\",\n", fast_config);
  std::fprintf(f, "  \"speedup_fast_vs_merge\": %.4f,\n",
               speedup_fast_vs_merge);
  std::fprintf(f, "  \"speedup_slotted_vs_merge\": %.4f,\n",
               speedup_slotted_vs_merge);
  std::fprintf(f, "  \"speedup_kernel_vs_scalar\": %.4f,\n",
               speedup_kernel_vs_scalar);
  std::fprintf(f, "  \"batch\": [\n");
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto& [config, timing] = batch[i];
    const KMeansProfile& prof = timing.profile;
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"kernel\": \"%s\", "
                 "\"context_seconds\": %.6f, "
                 "\"cluster_seconds\": %.6f, \"total_seconds\": %.6f, "
                 "\"seed_seconds\": %.6f, \"score_seconds\": %.6f, "
                 "\"maintenance_seconds\": %.6f, "
                 "\"refresh_seconds\": %.6f, \"refresh_entries\": %llu, "
                 "\"score_gbps\": %.3f}%s\n",
                 config.name, config.scoring == ClusterScoring::kSlotted
                     ? kernels::KindName(config.kernel)
                     : "none",
                 timing.context_seconds, timing.cluster_seconds,
                 timing.total(), prof.seed_seconds, prof.score_seconds(),
                 prof.maintenance_seconds, prof.refresh_seconds,
                 static_cast<unsigned long long>(prof.refresh_entries),
                 prof.score_gbps(), i + 1 < batch.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"trajectory\": [\n");
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const StepTrace& t = trajectory[i];
    std::fprintf(f,
                 "    {\"step\": %d, \"active_docs\": %zu, "
                 "\"merge_seconds\": %.6f, "
                 "\"fast_seconds\": %.6f}%s\n",
                 t.step, t.active, t.merge_seconds, t.fast_seconds,
                 i + 1 < trajectory.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("(trajectory written to %s)\n", path.c_str());
}

// Replays the stream incrementally day by day with the given config and
// returns the per-step clustering times (stats update excluded — the sweep
// is what this bench isolates).
std::vector<double> RunStream(const BenchCorpus& bc, size_t k,
                              const Config& config,
                              std::vector<size_t>* active_out) {
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 30.0;
  IncrementalOptions options;
  options.kmeans.k = k;
  options.kmeans.seed = 7;
  ApplyConfig(config, &options.kmeans);
  IncrementalClusterer clusterer(bc.corpus.get(), params, options);

  const DayTime begin = bc.corpus->MinTime();
  const DayTime end = std::min(begin + 6.0, bc.corpus->MaxTime());
  std::vector<double> seconds;
  if (active_out != nullptr) active_out->clear();
  for (DayTime day = begin; day <= end; day += 1.0) {
    const auto new_docs =
        bc.corpus->DocsInRange(day, std::min(day + 1.0, end + 1.0));
    if (new_docs.empty()) continue;
    auto step = clusterer.Step(new_docs, std::min(day + 1.0, end + 1.0));
    if (!step.ok()) {
      std::fprintf(stderr, "[%s] stream step failed: %s\n", config.name,
                   step.status().ToString().c_str());
      std::exit(1);
    }
    seconds.push_back(step->clustering_seconds);
    if (active_out != nullptr) active_out->push_back(step->num_active);
  }
  return seconds;
}

int Main() {
  PrintHeader("Sweep hot path: merge vs slotted move-only",
              "Table 1 setting (§6.2.1) — scoring-path + kernel ablation");

  const double scale = EnvScale("NIDC_SWEEP_SCALE", 1.0);
  const size_t k = static_cast<size_t>(EnvScale("NIDC_SWEEP_K", 32.0));
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const kernels::Kind kernel = DispatchedKind();
  BenchCorpus bc = MakeCorpus(scale);

  // Batch comparison: every document of the corpus active at once, so the
  // sweep runs at the full advertised size (≥ 5k docs at scale 1).
  ForgettingParams params;
  params.half_life_days = 30.0;
  params.life_span_days = 10000.0;  // keep everything active
  ForgettingModel model(bc.corpus.get(), params);
  model.AdvanceTo(bc.corpus->MaxTime());
  std::vector<DocId> docs(bc.corpus->size());
  for (DocId d = 0; d < static_cast<DocId>(docs.size()); ++d) docs[d] = d;
  model.AddDocuments(docs);

  ExtendedKMeansOptions kmeans;
  kmeans.k = k;
  kmeans.seed = 7;

  const std::vector<Config> configs = {
      {"merge", ClusterScoring::kMerge, kernel},
      {"slotted-scalar", ClusterScoring::kSlotted, kernels::Kind::kScalar, 5},
      {"slotted", ClusterScoring::kSlotted, kernel, 5},
  };
  constexpr size_t kMerge = 0, kSlottedScalar = 1, kSlotted = 2;

  std::printf("corpus: %zu docs, K = %zu, hardware threads = %zu, "
              "kernel = %s\n\n",
              docs.size(), k, hw, kernels::KindName(kernel));
  TablePrinter table({"config", "kernel", "context s", "cluster s",
                      "score s", "maint s", "refresh s", "refresh psi",
                      "GB/s", "total s", "speedup", "iters"});
  std::vector<std::pair<Config, Timing>> batch;
  std::vector<BatchRun> runs;
  for (const Config& config : configs) {
    runs.push_back(RunBatch(model, docs, config, kmeans));
    const Timing& t = runs.back().timing;
    batch.emplace_back(config, t);
    const bool slotted_row = config.scoring == ClusterScoring::kSlotted;
    table.AddRow(
        {config.name, slotted_row ? kernels::KindName(config.kernel) : "-",
         Fmt(t.context_seconds, 3), Fmt(t.cluster_seconds, 3),
         Fmt(t.profile.score_seconds(), 3),
         Fmt(t.profile.maintenance_seconds, 3),
         Fmt(t.profile.refresh_seconds, 3),
         std::to_string(t.profile.refresh_entries),
         slotted_row ? Fmt(t.profile.score_gbps(), 2) : "-",
         Fmt(t.total(), 3),
         Fmt(batch.front().second.total() / std::max(t.total(), 1e-12), 2) +
             "x",
         std::to_string(runs.back().result.iterations)});
  }
  table.Print(std::cout);

  bool identical = true;
  for (size_t i = 1; i < runs.size(); ++i) {
    const std::string label = std::string("merge vs ") + configs[i].name;
    identical &=
        SameClustering(runs[kMerge].result, runs[i].result, label.c_str());
  }
  std::printf("\nclustering outputs identical across configs: %s\n",
              identical ? "YES" : "NO");
  const double speedup = runs[kMerge].timing.total() /
                        std::max(runs[kSlotted].timing.total(), 1e-12);
  const double slotted_speedup =
      runs[kMerge].timing.cluster_seconds /
      std::max(runs[kSlotted].timing.cluster_seconds, 1e-12);
  // The kernel ratio compares the scoring pass (sweep minus move
  // maintenance) of the scalar-kernel sweep against the dispatched kernel's
  // sweep — same sweep structure, only the kernels differ. Maintenance
  // (Cluster::Add/Remove representative updates for moves) is
  // kernel-independent work both sides share, so it is excluded.
  const double kernel_speedup =
      runs[kSlottedScalar].timing.profile.score_seconds() /
      std::max(runs[kSlotted].timing.profile.score_seconds(), 1e-12);
  std::printf("slotted speedup over merge (total): %.2fx\n", speedup);
  std::printf("slotted speedup over merge (cluster time): %.2fx\n",
              slotted_speedup);
  std::printf("kernel speedup, %s vs scalar (scoring time): %.2fx\n",
              kernels::KindName(kernel), kernel_speedup);
  std::printf("slotted docs scored: %llu\n",
              static_cast<unsigned long long>(
                  runs[kSlotted].timing.profile.docs_scored));

  const double overhead_pct =
      MeasureInstrumentationOverhead(model, docs, kmeans,
                                     /*reps=*/0);  // 0 = fit a wall budget
  std::printf(
      "observability overhead (full telemetry stack vs null): %+.2f%%\n",
      overhead_pct);

  // Incremental-stream trajectory (first week of the corpus): merge vs the
  // slotted configuration, per-step clustering time.
  std::vector<size_t> active;
  const std::vector<double> merge_steps =
      RunStream(bc, k, configs[kMerge], &active);
  const std::vector<double> fast_steps =
      RunStream(bc, k, configs[kSlotted], nullptr);
  std::vector<StepTrace> trajectory;
  for (size_t i = 0; i < merge_steps.size() && i < fast_steps.size(); ++i) {
    StepTrace t;
    t.step = static_cast<int>(i);
    t.active = i < active.size() ? active[i] : 0;
    t.merge_seconds = merge_steps[i];
    t.fast_seconds = fast_steps[i];
    trajectory.push_back(t);
  }

  const char* dir = std::getenv("NIDC_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
      "/BENCH_sweep_hotpath.json";
  WriteJson(path, scale, k, docs.size(), hw, configs[kSlotted].name, batch,
            trajectory, speedup, slotted_speedup, kernel_speedup);

  if (!identical) {
    std::fprintf(stderr, "FAILED: configurations disagree on the output\n");
    return 1;
  }
  const double required = EnvScale("NIDC_REQUIRE_SPEEDUP", 0.0);
  if (required > 0.0 && speedup < required) {
    std::fprintf(stderr, "FAILED: speedup %.2fx below required %.2fx\n",
                 speedup, required);
    return 1;
  }
  const double required_slotted =
      EnvScale("NIDC_REQUIRE_SLOTTED_SPEEDUP", 0.0);
  if (required_slotted > 0.0 && slotted_speedup < required_slotted) {
    std::fprintf(stderr,
                 "FAILED: slotted-vs-merge speedup %.2fx below required "
                 "%.2fx\n",
                 slotted_speedup, required_slotted);
    return 1;
  }
  const double max_overhead = EnvScale("NIDC_MAX_INSTRUMENTED_OVERHEAD", 0.0);
  if (max_overhead > 0.0 && overhead_pct > max_overhead) {
    std::fprintf(stderr,
                 "FAILED: observability overhead %.2f%% exceeds the "
                 "%.2f%% budget\n",
                 overhead_pct, max_overhead);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nidc::bench

int main() { return nidc::bench::Main(); }
