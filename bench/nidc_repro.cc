// nidc_repro: regenerates the paper's evaluation, one subcommand per
// artifact — §6.1's Table 1, §6.2's Tables 2, 4 and 5, Figures 1–9, the
// §6.2.3 hot-topic narrative — plus the ablations and future-work probes
// built on the same corpus.
//
//   nidc_repro <artifact>|all
//
// Each artifact runs on the corpus at its scale in kArtifacts (1.0 = the
// paper-scale 7,578 documents) and writes its quality output (tables,
// counts, shape checks) as text whose CRC-32C is its digest; wall-clock
// figures go to a separate section that is printed but not hashed. The
// digest must equal the artifact's row in bench/repro_digests.tsv, or the
// run exits 3 naming the artifact and both CRCs. A failed step exits 1 and
// an unknown artifact exits 2. `all` builds one corpus per distinct scale
// and clusters the shared Experiment-2 windows once. NIDC_CSV_DIR=<dir>
// also writes Table 4's and Figures 5–9's series as CSV.
//
// The corpus is the synthetic TDT2-like one (see DESIGN.md): match the
// *shape* of the paper's numbers, not their absolute values.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "e2e/stats.h"
#include "nidc/baselines/f2icm.h"
#include "nidc/baselines/group_average_clustering.h"
#include "nidc/baselines/single_pass_incr.h"
#include "nidc/baselines/spherical_kmeans.h"
#include "nidc/core/first_story.h"
#include "nidc/core/incremental_clusterer.h"
#include "nidc/core/k_estimator.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/corpus/stream.h"
#include "nidc/eval/clustering_metrics.h"
#include "nidc/eval/f1_measures.h"
#include "nidc/eval/report.h"
#include "nidc/eval/topic_tracking.h"
#include "nidc/util/crc32.h"
#include "nidc/util/csv_writer.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/string_util.h"
#include "nidc/util/table_printer.h"

namespace nidc::repro {
namespace {

using bench::BenchCorpus;

/// Exits on a failed step: an artifact has no one to report errors to.
template <typename T>
T Check(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// The paper's Experiment-2 parameters (§6.2.2): K = 24, life span 30 days.
ExtendedKMeansOptions Experiment2KMeans(uint64_t seed = 7) {
  ExtendedKMeansOptions opts;
  opts.k = 24;
  opts.seed = seed;
  return opts;
}

/// Non-incremental clustering of one window at half-life `beta`, per the
/// Experiment-2 setup.
StepResult ClusterWindow(const BenchCorpus& bc, const TimeWindow& w,
                         double beta, ExtendedKMeansOptions kmeans) {
  ForgettingParams params;
  params.half_life_days = beta;
  params.life_span_days = 30.0;
  BatchClusterer clusterer(bc.corpus.get(), params, kmeans);
  return Check(clusterer.Run(bc.corpus->DocsInRange(w.begin, w.end), w.end),
               "clustering " + w.label);
}

std::vector<MarkedCluster> Mark(const BenchCorpus& bc, const TimeWindow& w,
                                const std::vector<std::vector<DocId>>& cl) {
  return MarkClusters(*bc.corpus, cl, bc.corpus->DocsInRange(w.begin, w.end),
                      {});
}

/// One corpus and the Experiment-2 window clusterings read from it, built
/// on first use and shared by every artifact run at the same scale.
struct Substrate {
  struct WindowRun {
    StepResult run;
    std::vector<MarkedCluster> marked;
  };

  BenchCorpus bc;
  std::map<std::pair<size_t, double>, WindowRun> exp2;  // (window, β)

  /// The Experiment-2 clustering of paper window `w` at half-life `beta`.
  const WindowRun& Exp2(size_t w, double beta) {
    auto it = exp2.find({w, beta});
    if (it != exp2.end()) return it->second;
    const TimeWindow window = PaperWindows()[w];
    StepResult run = ClusterWindow(bc, window, beta, Experiment2KMeans());
    auto marked = Mark(bc, window, run.clustering.clusters);
    return exp2.emplace(std::pair{w, beta},
                        WindowRun{std::move(run), std::move(marked)})
        .first->second;
  }
};

/// What an artifact renders: `quality` is digested, `timing` (wall-clock
/// figures) is printed after it but not hashed.
struct Report {
  std::ostringstream quality;
  std::ostringstream timing;
};

/// Writes `csv` to $NIDC_CSV_DIR/<name>.csv when the variable is set, so
/// the figures can be re-plotted externally; silently skips otherwise.
void MaybeWriteCsv(const char* name, const CsvWriter& csv) {
  const char* dir = std::getenv("NIDC_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  const Status status = csv.WriteFile(path);
  if (status.ok()) {
    std::fprintf(stderr, "(series written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv write failed: %s\n", status.ToString().c_str());
  }
}

std::string Spread(const std::vector<double>& seconds) {
  const e2e::Spread s = e2e::SpreadOf(seconds);
  return Stopwatch::FormatDuration(s.median) + " [" +
         Stopwatch::FormatDuration(s.q1) + ", " +
         Stopwatch::FormatDuration(s.q3) + "]";
}

// Table 1 (§6.1, Experiment 1): computation times of the incremental and
// non-incremental approaches.
//
// Paper setting: original TDT2, Jan 4–18 (4,327 docs; Jan 18 alone: 205),
// K = 32, β = 7 days, γ = 14 days (λ ≈ 0.9, ε = 0.25), Ruby on a 3.2 GHz
// Pentium 4. Paper numbers:
//   Non-incremental  Jan4-Jan18  stats 25min21sec  clustering 58min17sec
//   Incremental      Jan18       stats  1min45sec  clustering 15min25sec
//
// Here the same protocol runs on the synthetic corpus. At its scale of
// 2.0 the 15-day span [0, 15) holds 1,972 documents and its final day
// [14, 15) holds 134. Absolute times are far smaller (C++ vs Ruby, 20 years
// of hardware); the *shape* — incremental ≪ non-incremental in both phases
// — is the reproduced result. Each phase is timed over kTable1Reps
// repetitions; only the document counts are digested.
constexpr double kTable1SpanDays = 15.0;
constexpr int kTable1Reps = 11;

void Table1(Substrate& s, Report& r) {
  const Corpus* corpus = s.bc.corpus.get();
  ForgettingParams params;
  params.half_life_days = 7.0;   // λ ≈ 0.9
  params.life_span_days = 14.0;  // ε = 0.25
  IncrementalOptions iopts;
  iopts.kmeans.k = 32;
  iopts.kmeans.seed = 1;

  // Incremental: replay every day before the last once; each repetition
  // then times ONLY the final day's step (the paper's "process only the
  // data on Jan 18") on a copy of the replayed state.
  IncrementalClusterer replayed(corpus, params, iopts);
  DocumentStream stream(corpus, 0.0, kTable1SpanDays, 1.0);
  std::optional<DocumentBatch> last = stream.Next();
  while (auto batch = stream.Next()) {
    Check(replayed.Step(last->docs, last->end), "incremental step");
    last = std::move(batch);
  }
  // Non-incremental: statistics from scratch over the whole span,
  // clustering from a random start.
  const auto span = corpus->DocsInRange(0.0, kTable1SpanDays);
  std::vector<double> batch_stats, batch_cluster, incr_stats, incr_cluster;
  for (int rep = 0; rep < kTable1Reps; ++rep) {
    BatchClusterer batch(corpus, params, iopts.kmeans);
    const StepResult full =
        Check(batch.Run(span, kTable1SpanDays), "non-incremental run");
    IncrementalClusterer incremental = replayed;
    const StepResult step =
        Check(incremental.Step(last->docs, last->end), "incremental step");
    batch_stats.push_back(full.stats_update_seconds);
    batch_cluster.push_back(full.clustering_seconds);
    incr_stats.push_back(step.stats_update_seconds);
    incr_cluster.push_back(step.clustering_seconds);
  }

  std::ostream& q = r.quality;
  q << "K=32, half-life β=7d (λ≈0.9), life span γ=14d (ε=0.25)\n\n";
  TablePrinter table({"Approach", "Dataset", "Docs processed"});
  table.AddRow({"Non-incremental", "day0-day14", std::to_string(span.size())});
  table.AddRow({"Incremental", "day14 only", std::to_string(last->docs.size())});
  table.Print(q);
  q << "\nPaper (Ruby, P4 3.2GHz): statistics 25min21s -> 1min45s (14.5x), "
       "clustering 58min17s -> 15min25s (3.8x)\n"
       "Expected shape: incremental wins both phases; the statistics\n"
       "phase speedup tracks the existing:new document ratio.\n";

  std::ostream& t = r.timing;
  t << StringPrintf("%d repetitions, median [q1, q3]; nproc %u, kernel %s, "
                    "%s build\n",
                    kTable1Reps, std::thread::hardware_concurrency(),
                    kernels::KindName(kernels::Active().kind),
                    NIDC_BUILD_TYPE);
  TablePrinter times({"Approach", "Statistics Updating", "Clustering"});
  times.AddRow({"Non-incremental", Spread(batch_stats), Spread(batch_cluster)});
  times.AddRow({"Incremental", Spread(incr_stats), Spread(incr_cluster)});
  times.Print(t);
  const auto median = [](const std::vector<double>& v) {
    return std::max(e2e::SpreadOf(v).median, 1e-9);
  };
  t << StringPrintf("Measured speedups (ratio of medians): statistics %.1fx, "
                    "clustering %.1fx\n",
                    median(batch_stats) / median(incr_stats),
                    median(batch_cluster) / median(incr_cluster));
}

// Table 2 (§6.2.1): time-window statistics of the selected subset. The
// generator is calibrated so per-window document totals match the paper
// exactly; topic counts and size distributions are approximate.
void Table2(Substrate& s, Report& r) {
  struct PaperRow {
    size_t docs, topics, min_size, max_size;
    double median, mean;
  };
  static constexpr PaperRow kPaper[6] = {
      {1820, 30, 1, 461, 16.5, 60.67}, {2393, 44, 1, 875, 6.0, 54.39},
      {823, 47, 1, 129, 4.0, 17.51},   {570, 39, 1, 96, 5.0, 14.62},
      {1090, 40, 1, 327, 4.5, 27.25},  {882, 43, 1, 138, 4.0, 20.51},
  };
  const Corpus& corpus = *s.bc.corpus;
  const auto windows = PaperWindows();
  TablePrinter table({"Window", "Docs (paper)", "Topics (paper)",
                      "Min (paper)", "Max (paper)", "Median (paper)",
                      "Mean (paper)"});
  for (size_t w = 0; w < windows.size(); ++w) {
    const WindowStats stats = ComputeWindowStats(corpus, windows[w]);
    const PaperRow& paper = kPaper[w];
    table.AddRow(
        {windows[w].label,
         StringPrintf("%zu (%zu)", stats.num_docs, paper.docs),
         StringPrintf("%zu (%zu)", stats.num_topics, paper.topics),
         StringPrintf("%zu (%zu)", stats.min_topic_size, paper.min_size),
         StringPrintf("%zu (%zu)", stats.max_topic_size, paper.max_size),
         StringPrintf("%.1f (%.1f)", stats.median_topic_size, paper.median),
         StringPrintf("%.2f (%.2f)", stats.mean_topic_size, paper.mean)});
  }
  table.Print(r.quality);
  r.quality << StringPrintf(
      "\nTotals: %zu documents across %zu topics (paper: 7578 across 96)\n"
      "Document totals and the window-1/2/5/6 maxima (461/875/327/138) are "
      "calibrated exactly; topic spread is approximate.\n",
      corpus.size(), corpus.TopicCounts().size());
}

// Table 4 (§6.2.3): micro- and macro-averaged F1 for the six windows under
// β = 7 and β = 30. Expected shape (the paper's headline): β = 30 scores
// higher on both measures in every window, because F1 does not reward
// novelty — β = 30 "resembles the conventional clustering".
void Table4(Substrate& s, Report& r) {
  struct PaperF1 {
    double micro7, micro30, macro7, macro30;
  };
  static constexpr PaperF1 kPaper[6] = {
      {0.34, 0.52, 0.42, 0.59}, {0.40, 0.55, 0.50, 0.67},
      {0.32, 0.53, 0.37, 0.61}, {0.39, 0.53, 0.48, 0.59},
      {0.39, 0.53, 0.50, 0.57}, {0.51, 0.60, 0.55, 0.66},
  };
  const auto windows = PaperWindows();
  std::ostream& q = r.quality;
  q << StringPrintf("K=24, life span 30d, non-incremental (the paper's "
                    "§6.2.2 setting); corpus scale %.2f\n\n",
                    s.bc.generator->options().scale);

  TablePrinter table({"Time window", "Micro F1 b=7 (paper)",
                      "Micro F1 b=30 (paper)", "Macro F1 b=7 (paper)",
                      "Macro F1 b=30 (paper)", "Outliers b=7/b=30"});
  CsvWriter csv({"window", "micro_f1_beta7", "micro_f1_beta30",
                 "macro_f1_beta7", "macro_f1_beta30", "paper_micro_beta7",
                 "paper_micro_beta30", "paper_macro_beta7",
                 "paper_macro_beta30"});
  int micro_wins = 0;
  int macro_wins = 0;
  for (size_t w = 0; w < windows.size(); ++w) {
    const auto& short_run = s.Exp2(w, 7.0);
    const auto& long_run = s.Exp2(w, 30.0);
    const GlobalF1 f1_short = ComputeGlobalF1(short_run.marked);
    const GlobalF1 f1_long = ComputeGlobalF1(long_run.marked);
    if (f1_long.micro_f1 >= f1_short.micro_f1) ++micro_wins;
    if (f1_long.macro_f1 >= f1_short.macro_f1) ++macro_wins;
    const PaperF1& paper = kPaper[w];
    csv.AddRow({windows[w].label, StringPrintf("%.4f", f1_short.micro_f1),
                StringPrintf("%.4f", f1_long.micro_f1),
                StringPrintf("%.4f", f1_short.macro_f1),
                StringPrintf("%.4f", f1_long.macro_f1),
                StringPrintf("%.2f", paper.micro7),
                StringPrintf("%.2f", paper.micro30),
                StringPrintf("%.2f", paper.macro7),
                StringPrintf("%.2f", paper.macro30)});
    table.AddRow(
        {windows[w].label,
         StringPrintf("%.2f (%.2f)", f1_short.micro_f1, paper.micro7),
         StringPrintf("%.2f (%.2f)", f1_long.micro_f1, paper.micro30),
         StringPrintf("%.2f (%.2f)", f1_short.macro_f1, paper.macro7),
         StringPrintf("%.2f (%.2f)", f1_long.macro_f1, paper.macro30),
         StringPrintf("%zu/%zu", short_run.run.clustering.outliers.size(),
                      long_run.run.clustering.outliers.size())});
  }
  table.Print(q);
  MaybeWriteCsv("table4_f1", csv);
  q << StringPrintf(
      "\nShape check: beta=30 >= beta=7 on micro F1 in %d/6 windows "
      "(paper: 6/6), on macro F1 in %d/6 (paper: 6/6).\n"
      "beta=7 trades F1 for novelty: it forgets early-window documents "
      "(more outliers), which Table 4's measure penalizes and Section "
      "6.2.3's hot-topic analysis rewards.\n",
      micro_wins, macro_wins);
}

// Table 5 (§6.2.1): the topic inventory. The named topics reproduce the
// paper's ids, names and exact document counts; synthetic filler topics
// stand in for the unlisted ~42 small topics of the real subset.
void Table5(Substrate& s, Report& r) {
  const auto counts = s.bc.corpus->TopicCounts();
  TablePrinter named({"Topic ID", "Count (paper)", "Topic Name"});
  size_t named_docs = 0;
  size_t filler_docs = 0;
  size_t filler_topics = 0;
  for (const TopicSpec& topic : s.bc.generator->topics()) {
    const auto it = counts.find(topic.id);
    const size_t generated = it == counts.end() ? 0 : it->second;
    if (topic.id < 30000) {
      named.AddRow({std::to_string(topic.id),
                    StringPrintf("%zu (%zu)", generated, topic.TotalDocs()),
                    topic.name});
      named_docs += generated;
    } else {
      filler_docs += generated;
      ++filler_topics;
    }
  }
  named.Print(r.quality);
  r.quality << StringPrintf(
      "\n%zu filler topics (ids 30001+) add %zu documents, standing in for "
      "the small unlisted topics of the real subset.\n"
      "Total: %zu documents / %zu topics (paper: 7578 / 96).\n",
      filler_topics, filler_docs, named_docs + filler_docs, counts.size());
}

// Figures 1–4 (§6.2.3): per-cluster precision and recall for the first
// (Jan4–Feb2) and fourth (Apr4–May3) windows under β = 7 and β = 30. The
// paper plots bar charts; this prints the values and ASCII bars.
void Figures1To4(Substrate& s, Report& r) {
  std::ostream& q = r.quality;
  for (auto [window, beta, figure] :
       {std::tuple{0, 7.0, "Figure 1"}, std::tuple{0, 30.0, "Figure 2"},
        std::tuple{3, 7.0, "Figure 3"}, std::tuple{3, 30.0, "Figure 4"}}) {
    q << StringPrintf("---- %s: %s, half-life %.0f days ----\n", figure,
                      PaperWindows()[window].label.c_str(), beta);
    const auto& run = s.Exp2(window, beta);
    q << RenderClusterReport(run.marked, s.bc.Namer())
      << RenderPrecisionRecallBars(run.marked);
    const GlobalF1 f1 = ComputeGlobalF1(run.marked);
    q << StringPrintf("marked %zu/%zu clusters, %zu outliers, micro F1 %.2f, "
                      "macro F1 %.2f\n\n",
                      f1.num_marked, f1.num_evaluated,
                      run.run.clustering.outliers.size(), f1.micro_f1,
                      f1.macro_f1);
  }
  q << "Expected shape (paper): beta=30 marks more/larger clusters with "
       "higher recall; beta=7 keeps clusters of recent topics and drops "
       "early-window material to the outlier list.\n";
}

// The five topics §6.2.3 analyses, as Figures 5–9 plot them.
constexpr TopicId kFigureTopics[] = {20074, 20077, 20078, 20001, 20002};

// Figures 5–9 (§6.2.3): daily histograms of those five topics.
void Figures5To9(Substrate& s, Report& r) {
  static constexpr const char* kExpected[] = {
      "scattered; denser late in window 4 and early in window 6",
      "first half of window 1, then a small resurgence (10 docs) late in "
      "window 4",
      "late window 4 and early window 5 only, few documents",
      "large topic dominating windows 1-2 with a long tail",
      "large topic peaking in windows 1-2 with recurring coverage",
  };
  std::vector<std::vector<size_t>> series;
  for (TopicId topic : kFigureTopics) {
    series.push_back(TopicHistogram(*s.bc.corpus, topic, 0.0, 178.0));
  }
  CsvWriter csv({"day", "t20074", "t20077", "t20078", "t20001", "t20002"});
  for (size_t day = 0; day < 178; ++day) {
    std::vector<std::string> row = {std::to_string(day)};
    for (const auto& hist : series) {
      row.push_back(std::to_string(day < hist.size() ? hist[day] : 0));
    }
    csv.AddRow(std::move(row));
  }
  MaybeWriteCsv("fig5_9_histograms", csv);

  std::ostream& q = r.quality;
  for (size_t i = 0; i < series.size(); ++i) {
    const auto& hist = series[i];
    q << StringPrintf("---- Figure %zu: topic %d \"%s\" ----\n", 5 + i,
                      kFigureTopics[i],
                      s.bc.generator->TopicName(kFigureTopics[i]).c_str())
      << RenderAsciiHistogram(hist, 8)
      << "day 0 = Jan 4; window boundaries at days 30/60/90/120/150\n"
      << "per-window counts:";
    for (const TimeWindow& w : PaperWindows()) {
      size_t count = 0;
      for (size_t d = static_cast<size_t>(w.begin);
           d < static_cast<size_t>(w.end) && d < hist.size(); ++d) {
        count += hist[d];
      }
      q << StringPrintf(" %s=%zu", w.label.c_str(), count);
    }
    q << "\nexpected shape: " << kExpected[i] << "\n\n";
  }
}

// The §6.2.3 hot-topic narrative, made quantitative: for each (topic,
// window) pair the paper discusses, report whether the window's β = 7 and
// β = 30 clusterings mark a cluster with that topic.
//  * 20074 Nigerian Protest Violence — detected by β=7 in window 4 (the
//    burst is late in the window) but not by β=30; in window 6 (burst is
//    early) β=30 detects it while β=7 has forgotten it.
//  * 20077 Unabomber — in window 1 (early bulk) β=30 detects it, β=7 does
//    not; in window 4 the small late resurgence is caught by β=7 only.
//  * 20078 Denmark Strike — caught by β=7 in window 4 (recall 1.0, high
//    precision) but not by β=30.
void HotTopics(Substrate& s, Report& r) {
  struct Probe {
    TopicId topic;
    size_t window;  // 0-based
    bool paper_beta7, paper_beta30;
  };
  static constexpr Probe kProbes[] = {
      {20074, 3, true, false}, {20074, 5, false, true},
      {20077, 0, false, true}, {20077, 3, true, false},
      {20078, 3, true, false},
  };
  // The best-recall cluster marked with `topic`, if any.
  const auto detect = [](const std::vector<MarkedCluster>& marked,
                         TopicId topic) -> const MarkedCluster* {
    const MarkedCluster* best = nullptr;
    for (const auto& mc : marked) {
      if (!mc.marked() || mc.topic != topic) continue;
      if (best == nullptr || mc.recall > best->recall) best = &mc;
    }
    return best;
  };
  const auto yes_no = [](bool b) { return b ? "yes" : "no"; };
  const auto pr = [](const MarkedCluster* mc) {
    return mc ? StringPrintf("%.2f/%.2f", mc->precision, mc->recall)
              : std::string("-");
  };

  const auto windows = PaperWindows();
  std::ostream& q = r.quality;
  TablePrinter table({"Topic", "Window", "b=7 detected (paper)",
                      "b=30 detected (paper)", "b=7 P/R", "b=30 P/R"});
  int agreements = 0;
  for (const Probe& probe : kProbes) {
    const MarkedCluster* d7 =
        detect(s.Exp2(probe.window, 7.0).marked, probe.topic);
    const MarkedCluster* d30 =
        detect(s.Exp2(probe.window, 30.0).marked, probe.topic);
    agreements += ((d7 != nullptr) == probe.paper_beta7) +
                  ((d30 != nullptr) == probe.paper_beta30);
    table.AddRow({StringPrintf("%d %s", probe.topic,
                               s.bc.generator->TopicName(probe.topic).c_str()),
                  windows[probe.window].label,
                  StringPrintf("%s (%s)", yes_no(d7), yes_no(probe.paper_beta7)),
                  StringPrintf("%s (%s)", yes_no(d30),
                               yes_no(probe.paper_beta30)),
                  pr(d7), pr(d30)});
  }
  table.Print(q);
  q << StringPrintf(
      "\nAgreement with the paper's narrative: %d/10 cells.\n"
      "(Detection = some cluster marked with the topic at the paper's "
      "precision >= 0.60 rule.)\n\n",
      agreements);

  // Full lifelines of the five Figure-5..9 topics under each half life.
  for (double beta : {7.0, 30.0}) {
    std::vector<std::vector<DocId>> window_docs;
    std::vector<std::vector<MarkedCluster>> window_markings;
    std::vector<std::string> labels;
    for (size_t w = 0; w < windows.size(); ++w) {
      window_docs.push_back(
          s.bc.corpus->DocsInRange(windows[w].begin, windows[w].end));
      window_markings.push_back(s.Exp2(w, beta).marked);
      labels.push_back(windows[w].label);
    }
    auto tracks = TrackTopics(*s.bc.corpus, window_docs, window_markings);
    std::map<TopicId, TopicTrack> figure_tracks;
    for (TopicId topic : kFigureTopics) {
      auto it = tracks.find(topic);
      if (it != tracks.end()) figure_tracks.emplace(topic, it->second);
    }
    q << StringPrintf("---- topic lifelines, half-life %.0f days ----\n",
                      beta)
      << RenderTopicTracks(figure_tracks, labels) << "\n";
  }
}

// Ablation B: sensitivity of the extended K-means to K (the paper's stated
// future work is "a method to estimate the appropriate K value"), to the
// convergence constant δ and to the assignment criterion. Window 1,
// β = 30, non-incremental.
void AblateKDelta(Substrate& s, Report& r) {
  const BenchCorpus& bc = s.bc;
  const TimeWindow w = PaperWindows()[0];
  std::ostream& q = r.quality;
  q << StringPrintf("window %s, %zu documents, beta=30, life span 30d\n\n",
                    w.label.c_str(), bc.corpus->DocsInRange(w.begin, w.end)
                                         .size());
  // Clusters the window with `opts`, timing the run into `times`.
  const auto run = [&](const ExtendedKMeansOptions& opts,
                       TablePrinter& times, std::string label) {
    Stopwatch timer;
    StepResult result = ClusterWindow(bc, w, 30.0, opts);
    times.AddRow({std::move(label),
                  Stopwatch::FormatDuration(timer.ElapsedSeconds())});
    return result;
  };

  q << "--- K sweep (delta = 1e-3) ---\n";
  TablePrinter k_table({"K", "iterations", "G", "outliers", "marked",
                        "micro F1", "macro F1"});
  TablePrinter k_times({"K", "time"});
  for (size_t k : {4, 8, 16, 24, 32, 48, 64}) {
    ExtendedKMeansOptions opts = Experiment2KMeans();
    opts.k = k;
    const StepResult result = run(opts, k_times, std::to_string(k));
    const GlobalF1 f1 =
        ComputeGlobalF1(Mark(bc, w, result.clustering.clusters));
    k_table.AddRow({std::to_string(k),
                    std::to_string(result.clustering.iterations),
                    StringPrintf("%.4f", result.clustering.g),
                    std::to_string(result.clustering.outliers.size()),
                    StringPrintf("%zu/%zu", f1.num_marked, f1.num_evaluated),
                    StringPrintf("%.2f", f1.micro_f1),
                    StringPrintf("%.2f", f1.macro_f1)});
  }
  k_table.Print(q);

  q << "\n--- delta sweep (K = 24) ---\n";
  TablePrinter d_table({"delta", "iterations", "converged", "G", "micro F1"});
  TablePrinter d_times({"delta", "time"});
  for (double delta : {0.3, 0.1, 0.01, 1e-3, 1e-4, 1e-6}) {
    ExtendedKMeansOptions opts = Experiment2KMeans();
    opts.delta = delta;
    opts.max_iterations = 100;
    const std::string label = StringPrintf("%g", delta);
    const StepResult result = run(opts, d_times, label);
    const GlobalF1 f1 =
        ComputeGlobalF1(Mark(bc, w, result.clustering.clusters));
    d_table.AddRow({label, std::to_string(result.clustering.iterations),
                    result.clustering.converged ? "yes" : "no",
                    StringPrintf("%.4f", result.clustering.g),
                    StringPrintf("%.2f", f1.micro_f1)});
  }
  d_table.Print(q);

  q << "\n--- assignment criterion ablation (K = 24) ---\n";
  TablePrinter c_table({"criterion", "iterations", "G", "outliers",
                        "micro F1", "macro F1", "micro recall"});
  for (auto [criterion, label] :
       {std::pair{AssignmentCriterion::kGIncrease, "G-greedy (default)"},
        std::pair{AssignmentCriterion::kAvgSimIncrease,
                  "avg_sim-greedy (paper-literal)"}}) {
    ExtendedKMeansOptions opts = Experiment2KMeans();
    opts.criterion = criterion;
    const StepResult result = ClusterWindow(bc, w, 30.0, opts);
    const GlobalF1 f1 =
        ComputeGlobalF1(Mark(bc, w, result.clustering.clusters));
    c_table.AddRow({label, std::to_string(result.clustering.iterations),
                    StringPrintf("%.4f", result.clustering.g),
                    std::to_string(result.clustering.outliers.size()),
                    StringPrintf("%.2f", f1.micro_f1),
                    StringPrintf("%.2f", f1.macro_f1),
                    StringPrintf("%.2f", f1.micro_recall)});
  }
  c_table.Print(q);
  q << "\nThe avg_sim-literal rule only admits documents that raise the "
       "intra-cluster mean, leaving most of the window on the outlier list "
       "— the G-greedy reading reproduces the paper's cluster sizes (see "
       "DESIGN.md).\n";

  r.timing << "K sweep\n";
  k_times.Print(r.timing);
  r.timing << "delta sweep\n";
  d_times.Print(r.timing);
}

// Ablation C: the novelty-based extended K-means against the related-work
// baselines (§2.2) — classical spherical K-means on tf·idf, Yang et al.'s
// single-pass INCR (time window + linear decay), the F2ICM predecessor and
// GAC-lite bucketed group-average clustering. Windows 1 and 4.
void Baselines(Substrate& s, Report& r) {
  const BenchCorpus& bc = s.bc;
  for (size_t window_index : {0, 3}) {
    const TimeWindow w = PaperWindows()[window_index];
    const auto docs = bc.corpus->DocsInRange(w.begin, w.end);
    const std::string heading = StringPrintf(
        "---- window %s (%zu docs) ----\n", w.label.c_str(), docs.size());
    TablePrinter table({"Method", "Clusters", "micro F1", "macro F1",
                        "purity", "NMI", "ARI"});
    TablePrinter times({"Method", "time"});
    const auto add = [&](const std::string& name,
                         const std::vector<std::vector<DocId>>& clusters,
                         double seconds) {
      const GlobalF1 f1 =
          ComputeGlobalF1(MarkClusters(*bc.corpus, clusters, docs, {}));
      const ClusteringMetrics metrics =
          ComputeClusteringMetrics(*bc.corpus, clusters);
      size_t nonempty = 0;
      for (const auto& c : clusters) nonempty += !c.empty();
      table.AddRow({name, std::to_string(nonempty),
                    StringPrintf("%.2f", f1.micro_f1),
                    StringPrintf("%.2f", f1.macro_f1),
                    StringPrintf("%.2f", metrics.purity),
                    StringPrintf("%.2f", metrics.nmi),
                    StringPrintf("%.2f", metrics.adjusted_rand)});
      times.AddRow({name, Stopwatch::FormatDuration(seconds)});
    };

    // Novelty-based extended K-means, both half lives.
    for (double beta : {7.0, 30.0}) {
      Stopwatch timer;
      const StepResult run = ClusterWindow(bc, w, beta, Experiment2KMeans());
      add(StringPrintf("extended K-means beta=%.0f", beta),
          run.clustering.clusters, timer.ElapsedSeconds());
    }

    // Baselines share one tf-idf snapshot (time-agnostic representation).
    Stopwatch tfidf_timer;
    TfIdfModel tfidf(*bc.corpus, docs);
    const double tfidf_seconds = tfidf_timer.ElapsedSeconds();
    {
      Stopwatch timer;
      SphericalKMeansOptions opts;
      opts.k = 24;
      opts.seed = 7;
      auto run = RunSphericalKMeans(tfidf, opts);
      if (run.ok()) {
        add("spherical K-means (tf-idf)", run->clusters,
            tfidf_seconds + timer.ElapsedSeconds());
      }
    }
    {
      Stopwatch timer;
      SinglePassOptions opts;
      opts.threshold = 0.25;
      opts.window_days = 30.0;
      auto run = RunSinglePass(*bc.corpus, tfidf, docs, opts);
      if (run.ok()) {
        add(StringPrintf("single-pass INCR (%zu seeded)", run->num_seeded),
            run->clusters, tfidf_seconds + timer.ElapsedSeconds());
      }
    }
    {
      // F2ICM predecessor (same novelty similarity, seed-based clustering).
      Stopwatch timer;
      ForgettingParams params;
      params.half_life_days = 7.0;
      params.life_span_days = 30.0;
      ForgettingModel model(bc.corpus.get(), params);
      model.RebuildFromScratch(docs, w.end);
      SimilarityContext ctx(model);
      F2IcmOptions opts;
      opts.num_seeds = 24;
      auto run = RunF2Icm(model, ctx, opts);
      if (run.ok()) {
        add(StringPrintf("F2ICM beta=7 (nc est %.0f)", run->nc_estimate),
            run->clusters, timer.ElapsedSeconds());
      }
    }
    {
      Stopwatch timer;
      GacOptions opts;
      opts.target_clusters = 24;
      opts.bucket_size = 150;
      auto run = RunGroupAverageClustering(tfidf, docs, opts);
      if (run.ok()) {
        add(StringPrintf("GAC-lite (%d passes)", run->passes), run->clusters,
            tfidf_seconds + timer.ElapsedSeconds());
      }
    }
    r.quality << heading;
    table.Print(r.quality);
    r.quality << "\n";
    r.timing << heading;
    times.Print(r.timing);
  }
  r.quality << "Reading: on F1 (which ignores novelty) the time-agnostic\n"
               "baselines and beta=30 should be competitive; beta=7's value\n"
               "shows up in the hot-topic bench, not here.\n";
}

// Future-work probe: do the incremental and non-incremental versions
// produce similar clustering *quality*? (§6.1 raises the question and §7
// defers it.) Streams the first two windows day by day through the
// incremental clusterer; at 10-day checkpoints, also runs the
// non-incremental clusterer on the same active set and compares micro/macro
// F1 and the clustering index G.
void IncrQuality(Substrate& s, Report& r) {
  const Corpus* corpus = s.bc.corpus.get();
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 14.0;
  IncrementalOptions iopts;
  iopts.kmeans = Experiment2KMeans(11);
  IncrementalClusterer incremental(corpus, params, iopts);

  TablePrinter table({"Day", "Active docs", "Incr micro F1", "Batch micro F1",
                      "Incr macro F1", "Batch macro F1", "Incr G", "Batch G",
                      "Incr iters", "Batch iters"});
  DocumentStream stream(corpus, 0.0, 60.0, 1.0);
  while (auto batch = stream.Next()) {
    auto step = incremental.Step(batch->docs, batch->end);
    if (!step.ok()) continue;  // empty active set on a quiet prefix
    const int day = static_cast<int>(batch->end);
    if (day % 10 != 0) continue;

    // Non-incremental reference over the identical active set.
    BatchClusterer batch_clusterer(corpus, params, Experiment2KMeans(11));
    const std::vector<DocId> active = incremental.model().active_docs();
    auto reference = batch_clusterer.Run(active, batch->end);
    if (!reference.ok()) continue;
    const ClusteringResult& incr = step->clustering;
    const ClusteringResult& ref = reference->clustering;
    const GlobalF1 f1_incr =
        ComputeGlobalF1(MarkClusters(*corpus, incr.clusters, active, {}));
    const GlobalF1 f1_batch =
        ComputeGlobalF1(MarkClusters(*corpus, ref.clusters, active, {}));
    table.AddRow({std::to_string(day), std::to_string(active.size()),
                  StringPrintf("%.2f", f1_incr.micro_f1),
                  StringPrintf("%.2f", f1_batch.micro_f1),
                  StringPrintf("%.2f", f1_incr.macro_f1),
                  StringPrintf("%.2f", f1_batch.macro_f1),
                  StringPrintf("%.4f", incr.g), StringPrintf("%.4f", ref.g),
                  std::to_string(incr.iterations),
                  std::to_string(ref.iterations)});
  }
  table.Print(r.quality);
  r.quality << "\nExpected: comparable F1 and G at every checkpoint (the\n"
               "paper observed the results are \"roughly close\"), with the\n"
               "incremental runs typically converging in fewer iterations\n"
               "thanks to membership seeding.\n";
}

// Future-work probe: "a method to estimate the appropriate K value" (§7).
// Evaluates the two estimators of core/k_estimator.h against every
// window's ground truth: the cover-coefficient decoupling sum n_c (the
// C²ICM/F²ICM estimate, under both half lives — forgetting shrinks old
// topics' effective contribution) and the G-knee scan.
void KEstimation(Substrate& s, Report& r) {
  const Corpus* corpus = s.bc.corpus.get();
  // The window's forgetting model at half-life `beta`, life span 30 days.
  const auto model_at = [&](const TimeWindow& w, double beta) {
    ForgettingParams params;
    params.half_life_days = beta;
    params.life_span_days = 30.0;
    ForgettingModel model(corpus, params);
    model.RebuildFromScratch(corpus->DocsInRange(w.begin, w.end), w.end);
    return model;
  };
  TablePrinter table({"Window", "Docs", "True topics", "n_c (b=30)",
                      "n_c (b=7)", "G-knee (b=30)"});
  for (const TimeWindow& w : PaperWindows()) {
    const ForgettingModel model = model_at(w, 30.0);
    const size_t nc30 = EstimateKByCoverCoefficient(model);
    const size_t nc7 = EstimateKByCoverCoefficient(model_at(w, 7.0));
    SimilarityContext ctx(model);
    GKneeOptions gopts;
    gopts.kmeans.seed = 7;
    gopts.max_k = 64;
    auto knee = EstimateKByGKnee(ctx, model.active_docs(), gopts);
    table.AddRow({w.label,
                  std::to_string(corpus->DocsInRange(w.begin, w.end).size()),
                  std::to_string(ComputeWindowStats(*corpus, w).num_topics),
                  std::to_string(nc30), std::to_string(nc7),
                  knee.ok() ? std::to_string(knee->k) : std::string("-")});
  }
  table.Print(r.quality);
  r.quality << "\nReading: n_c counts *vocabulary-coherent* groups, which\n"
               "need not equal the annotated topic count — big diffuse\n"
               "topics fragment (pushing n_c up) while coupled small topics\n"
               "merge (pushing it down); on this corpus fragmentation\n"
               "dominates and n_c lands above the truth but in the right\n"
               "order of magnitude, a sensible default for K. The G-knee\n"
               "grid gives the K past which the clustering index stops\n"
               "improving materially.\n";
}

// Future-work probe: "experiments using the small and large forgetting
// factor values on larger time window size" (§7). Sweeps the half-life β
// over a wide range and the window length over {30, 60, 90} days,
// reporting F1, outlier mass and the recent-vs-old probability split.
void BetaSweep(Substrate& s, Report& r) {
  const Corpus& corpus = *s.bc.corpus;
  for (double window_days : {30.0, 60.0, 90.0}) {
    const auto docs = corpus.DocsInRange(0.0, window_days);
    r.quality << StringPrintf("---- window length %.0f days (%zu docs) ----\n",
                              window_days, docs.size());
    TablePrinter table({"beta (days)", "lambda", "micro F1", "macro F1",
                        "outliers", "recent-third mass", "marked"});
    for (double beta : {3.5, 7.0, 14.0, 30.0, 60.0, 120.0}) {
      ForgettingParams params;
      params.half_life_days = beta;
      params.life_span_days = window_days;  // keep everything active
      BatchClusterer clusterer(&corpus, params, Experiment2KMeans());
      auto run = clusterer.Run(docs, window_days);
      if (!run.ok()) continue;
      const GlobalF1 f1 = ComputeGlobalF1(
          MarkClusters(corpus, run->clustering.clusters, docs, {}));
      // Probability mass held by the newest third of the window.
      const double cutoff = window_days - window_days / 3.0;
      double recent = 0.0;
      double total = 0.0;
      for (DocId id : docs) {
        const double p = clusterer.model().PrDoc(id);
        total += p;
        if (corpus.doc(id).time >= cutoff) recent += p;
      }
      table.AddRow({StringPrintf("%.1f", beta),
                    StringPrintf("%.3f", params.Lambda()),
                    StringPrintf("%.2f", f1.micro_f1),
                    StringPrintf("%.2f", f1.macro_f1),
                    std::to_string(run->clustering.outliers.size()),
                    StringPrintf("%.2f", total > 0.0 ? recent / total : 0.0),
                    StringPrintf("%zu/%zu", f1.num_marked,
                                 f1.num_evaluated)});
    }
    table.Print(r.quality);
    r.quality << "\n";
  }
  r.quality << "Expected: F1 rises monotonically with beta toward the\n"
               "conventional-clustering plateau; the recent-third mass (the\n"
               "novelty bias) falls toward its uniform share (~1/3). The\n"
               "crossover beta scales with the window length — a 7-day half\n"
               "life that is aggressive for a 30-day window is extreme for\n"
               "a 90-day one.\n";
}

// Extension: first story detection (a TDT task from §2.1's related work)
// with the forgetting model underneath. Streams the corpus day by day and
// scores flagged first stories against ground truth: a document is a true
// first story when it is the chronologically first of its topic *or* its
// topic has been silent longer than the life span (the forgetting-
// consistent reading of "new").
void FirstStory(Substrate& s, Report& r) {
  const Corpus* corpus = s.bc.corpus.get();
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 21.0;
  TablePrinter table({"threshold", "flagged", "true first stories",
                      "correct flags", "precision", "recall"});
  for (double threshold : {0.05, 0.10, 0.15, 0.25, 0.40}) {
    FirstStoryOptions options;
    options.novelty_threshold = threshold;
    FirstStoryDetector detector(corpus, params, options);
    std::map<TopicId, DayTime> last_seen;
    size_t truth = 0;
    size_t flagged = 0;
    size_t correct = 0;
    DocumentStream stream(corpus, 0.0, 178.0, 1.0);
    while (auto batch = stream.Next()) {
      for (const FirstStoryVerdict& v :
           Check(detector.Observe(batch->docs, batch->end), "observe")) {
        const Document& doc = corpus->doc(v.doc);
        const auto seen = last_seen.find(doc.topic);
        const bool is_true_first =
            seen == last_seen.end() ||
            doc.time - seen->second > params.life_span_days;
        last_seen[doc.topic] = doc.time;
        truth += is_true_first;
        flagged += v.is_first_story;
        correct += v.is_first_story && is_true_first;
      }
    }
    table.AddRow(
        {StringPrintf("%.2f", threshold), std::to_string(flagged),
         std::to_string(truth), std::to_string(correct),
         StringPrintf("%.2f", flagged > 0 ? double(correct) / flagged : 0.0),
         StringPrintf("%.2f", truth > 0 ? double(correct) / truth : 0.0)});
  }
  table.Print(r.quality);
  r.quality << "\nThe threshold trades detection recall against false\n"
               "alarms — the classic TDT FSD operating curve, here driven\n"
               "by the novelty-weighted cosine over the active set.\n";
}

struct Artifact {
  const char* name;
  double scale;
  void (*render)(Substrate&, Report&);
  const char* title;
  const char* paper_ref;
};

// In `all` order: Table 4 fills the Experiment-2 set the figures and the
// hot-topic probes then read.
constexpr Artifact kArtifacts[] = {
    {"table1", 2.0, Table1,
     "Table 1 — incremental vs non-incremental computation time",
     "ICDE'06 paper, Section 6.1, Table 1"},
    {"table2", 1.0, Table2,
     "Table 2 — time window statistics of the selected corpus",
     "ICDE'06 paper, Section 6.2.1, Table 2"},
    {"table4", 1.0, Table4,
     "Table 4 — micro/macro F1 per window, beta=7 vs beta=30",
     "ICDE'06 paper, Section 6.2.3, Table 4"},
    {"table5", 1.0, Table5, "Table 5 — topics in the selected TDT2-like corpus",
     "ICDE'06 paper, Section 6.2.1, Table 5"},
    {"fig1-4", 1.0, Figures1To4,
     "Figures 1-4 — per-cluster precision/recall, windows 1 and 4",
     "ICDE'06 paper, Section 6.2.3, Figures 1, 2, 3, 4"},
    {"fig5-9", 1.0, Figures5To9, "Figures 5-9 — topic histograms",
     "ICDE'06 paper, Section 6.2.3, Figures 5, 6, 7, 8, 9"},
    {"hot-topics", 1.0, HotTopics,
     "Hot-topic detection — the Section 6.2.3 narrative",
     "ICDE'06 paper, Section 6.2.3 (discussion of Figures 5-7)"},
    {"ablate-k-delta", 0.5, AblateKDelta,
     "Ablation — sensitivity to K and to the delta criterion",
     "ICDE'06 paper, Sections 4.3 and 7 (future work: choosing K)"},
    {"baselines", 0.5, Baselines,
     "Baseline comparison — extended K-means vs related work",
     "ICDE'06 paper, Section 2.2 (GAC, INCR, conventional K-means)"},
    {"incr-quality", 0.5, IncrQuality,
     "Incremental vs non-incremental clustering quality",
     "ICDE'06 paper, Sections 6.1 (open question) and 7"},
    {"k-estimation", 0.5, KEstimation,
     "K estimation — cover-coefficient n_c and G-knee vs truth",
     "ICDE'06 paper, Section 7 (future work: choosing K)"},
    {"beta-sweep", 0.5, BetaSweep, "beta / window-size sweep",
     "ICDE'06 paper, Section 7 (future work: forgetting factor on larger "
     "windows)"},
    {"first-story", 0.3, FirstStory,
     "First story detection under the forgetting model",
     "ICDE'06 paper, Section 2.1 (TDT first-story-detection task)"},
};

/// bench/repro_digests.tsv as artifact -> crc32c.
std::map<std::string, std::string> LoadDigests() {
  std::ifstream in(NIDC_SOURCE_DIR "/bench/repro_digests.tsv");
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, crc;
    if (line.empty() || line[0] == '#' || !(fields >> name >> crc)) continue;
    digests[name] = crc;
  }
  return digests;
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "nidc_repro: %s\nusage: nidc_repro <artifact>|all\n"
               "artifacts:",
               error.c_str());
  for (const Artifact& a : kArtifacts) std::fprintf(stderr, " %s", a.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc != 2) return Usage("want exactly one artifact name or 'all'");
  const std::string target = argv[1];
  std::vector<const Artifact*> selected;
  for (const Artifact& a : kArtifacts) {
    if (target == "all" || target == a.name) selected.push_back(&a);
  }
  if (selected.empty()) return Usage("unknown artifact '" + target + "'");

  const auto committed = LoadDigests();
  std::map<double, Substrate> substrates;  // one corpus per scale
  int mismatches = 0;
  for (const Artifact* a : selected) {
    auto it = substrates.find(a->scale);
    if (it == substrates.end()) {
      it = substrates
               .emplace(a->scale, Substrate{bench::MakeCorpus(a->scale), {}})
               .first;
    }
    bench::PrintHeader(a->title, a->paper_ref);
    Report report;
    a->render(it->second, report);
    const std::string text = report.quality.str();
    std::cout << text;
    if (const std::string timing = report.timing.str(); !timing.empty()) {
      std::cout << "\n---- wall clock (not digested) ----\n" << timing;
    }
    const std::string crc = StringPrintf("%08x", Crc32c(text));
    const auto row = committed.find(a->name);
    const std::string want = row == committed.end() ? "none" : row->second;
    if (want != crc) {
      ++mismatches;
      std::fprintf(stderr,
                   "nidc_repro: %s digest %s does not match the committed "
                   "%s (bench/repro_digests.tsv)\n",
                   a->name, crc.c_str(), want.c_str());
    }
    std::cout << "\ndigest " << a->name << " " << crc << " "
              << (want == crc ? "ok" : "MISMATCH, committed " + want)
              << "\n\n"
              << std::flush;
  }
  // Distinct from a failed step's 1, so tools/regen_bench.sh can tell a
  // changed digest from a run that stopped partway.
  return mismatches == 0 ? 0 : 3;
}

}  // namespace
}  // namespace nidc::repro

int main(int argc, char** argv) { return nidc::repro::Main(argc, argv); }
