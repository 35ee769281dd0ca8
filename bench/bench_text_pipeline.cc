// Micro-benchmark for the text substrate: tokenizer, Porter stemmer, the
// full analyzer pipeline, and the sparse-vector kernels the clustering hot
// loop leans on. The analyzer runs on two corpora: the synthetic newswire
// the service benchmarks ingest, and English prose (PAPER.md and docs/*.md
// of the source tree), which has stopwords and inflections. Each analyzer
// row reports `fast_path`, the share of tokens that were an interned term
// known to analyze to itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "nidc/synth/tdt2_like_generator.h"
#include "nidc/text/analyzer.h"

namespace nidc {
namespace {

const std::vector<std::string>& SampleTexts() {
  static auto* texts = [] {
    GeneratorOptions opts;
    opts.scale = 0.05;
    Tdt2LikeGenerator generator(opts);
    auto raw = generator.GenerateRaw().value();
    auto* out = new std::vector<std::string>();
    for (size_t i = 0; i < std::min<size_t>(raw.size(), 200); ++i) {
      out->push_back(raw[i].text);
    }
    return out;
  }();
  return *texts;
}

void BM_Tokenizer(benchmark::State& state) {
  Tokenizer tokenizer;
  const auto& texts = SampleTexts();
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    bytes += text.size();
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Tokenizer);

void BM_PorterStemmer(benchmark::State& state) {
  PorterStemmer stemmer;
  const char* words[] = {"clustering",  "incremental", "documents",
                         "similarity",  "probability", "forgetting",
                         "novelty",     "elections",   "settlement",
                         "inspections"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stemmer.Stem(words[i++ % 10]));
  }
}
BENCHMARK(BM_PorterStemmer);

// Non-empty lines of PAPER.md and docs/*.md.
const std::vector<std::string>& EnglishTexts() {
  static auto* texts = [] {
    const std::filesystem::path root(NIDC_SOURCE_DIR);
    std::vector<std::filesystem::path> files;
    std::error_code error;
    for (const auto& entry :
         std::filesystem::directory_iterator(root / "docs", error)) {
      if (entry.path().extension() == ".md") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    files.insert(files.begin(), root / "PAPER.md");
    auto* out = new std::vector<std::string>();
    for (const auto& file : files) {
      std::ifstream in(file);
      for (std::string line; std::getline(in, line);) {
        if (!line.empty()) out->push_back(line);
      }
    }
    return out;
  }();
  return *texts;
}

void RunAnalyzer(benchmark::State& state,
                 const std::vector<std::string>& texts) {
  if (texts.empty()) {
    state.SkipWithError("no input texts");
    return;
  }
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  size_t i = 0;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    bytes += text.size();
    benchmark::DoNotOptimize(analyzer.Analyze(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  const AnalyzerStats& stats = analyzer.stats();
  state.counters["fast_path"] =
      stats.tokens == 0 ? 0.0
                        : static_cast<double>(stats.fast_path_tokens) /
                              static_cast<double>(stats.tokens);
}

void BM_AnalyzerPipeline(benchmark::State& state) {
  RunAnalyzer(state, SampleTexts());
}
BENCHMARK(BM_AnalyzerPipeline);

void BM_AnalyzerEnglish(benchmark::State& state) {
  RunAnalyzer(state, EnglishTexts());
}
BENCHMARK(BM_AnalyzerEnglish);

void BM_SparseDot_SimilarSizes(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<SparseVector::Entry> a_entries;
  std::vector<SparseVector::Entry> b_entries;
  for (size_t i = 0; i < n; ++i) {
    a_entries.push_back({static_cast<TermId>(rng.NextBounded(n * 4)), 1.0});
    b_entries.push_back({static_cast<TermId>(rng.NextBounded(n * 4)), 1.0});
  }
  const SparseVector a = SparseVector::FromEntries(std::move(a_entries));
  const SparseVector b = SparseVector::FromEntries(std::move(b_entries));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(b));
  }
}
BENCHMARK(BM_SparseDot_SimilarSizes)->Arg(32)->Arg(256)->Arg(2048);

void BM_SparseDot_SmallVsLarge(benchmark::State& state) {
  // The clustering hot path: ψ (~60 terms) against a representative
  // (thousands of terms); exercises the binary-search fast path.
  Rng rng(2);
  const size_t large = static_cast<size_t>(state.range(0));
  std::vector<SparseVector::Entry> a_entries;
  std::vector<SparseVector::Entry> b_entries;
  for (size_t i = 0; i < 60; ++i) {
    a_entries.push_back(
        {static_cast<TermId>(rng.NextBounded(large * 2)), 1.0});
  }
  for (size_t i = 0; i < large; ++i) {
    b_entries.push_back(
        {static_cast<TermId>(rng.NextBounded(large * 2)), 1.0});
  }
  const SparseVector a = SparseVector::FromEntries(std::move(a_entries));
  const SparseVector b = SparseVector::FromEntries(std::move(b_entries));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(b));
  }
}
BENCHMARK(BM_SparseDot_SmallVsLarge)->Arg(2048)->Arg(16384);

}  // namespace
}  // namespace nidc

BENCHMARK_MAIN();
