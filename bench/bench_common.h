// Shared plumbing for the benchmark harnesses: environment knobs, corpus
// construction and the report banner.

#ifndef NIDC_BENCH_BENCH_COMMON_H_
#define NIDC_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "nidc/eval/report.h"
#include "nidc/synth/tdt2_like_generator.h"
// The perf gates that include this header time IncrementalClusterer runs
// and print TablePrinter tables through these.
#include "nidc/core/incremental_clusterer.h"
#include "nidc/util/stopwatch.h"
#include "nidc/util/string_util.h"
#include "nidc/util/table_printer.h"

namespace nidc::bench {

/// Reads a positive number from the environment (lets users re-run benches
/// at other scales without recompiling); `fallback` when `name` is unset.
/// A set value that is not a finite positive number exits the process with
/// status 2: a typo must not quietly turn a gate off.
inline double EnvScale(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::optional<double> parsed = ParseNumber<double>(value);
  if (!parsed || !std::isfinite(*parsed) || *parsed <= 0.0) {
    std::fprintf(stderr, "%s=%s: expected a positive number\n", name, value);
    std::exit(2);
  }
  return *parsed;
}

/// One generated corpus + its generator, built once per bench process.
struct BenchCorpus {
  std::unique_ptr<Tdt2LikeGenerator> generator;
  std::unique_ptr<Corpus> corpus;

  TopicNamer Namer() const {
    const Tdt2LikeGenerator* gen = generator.get();
    return [gen](TopicId id) { return gen->TopicName(id); };
  }
};

/// Generates the TDT2-like corpus at `scale` (1.0 = the paper-scale 7,578
/// documents). Exits the process on failure: benches have no one to report
/// errors to.
inline BenchCorpus MakeCorpus(double scale = 1.0, uint64_t seed = 19980104) {
  GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  BenchCorpus out;
  out.generator = std::make_unique<Tdt2LikeGenerator>(opts);
  auto corpus = out.generator->Generate();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  out.corpus = std::move(corpus).value();
  return out;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Substrate: synthetic TDT2-like corpus (see DESIGN.md) — match\n");
  std::printf("the *shape* of the paper's numbers, not their absolute values.\n");
  std::printf("==============================================================\n\n");
}

}  // namespace nidc::bench

#endif  // NIDC_BENCH_BENCH_COMMON_H_
