// Ablation A (google-benchmark): the cluster-representative fast path.
//
// §4.4's point is that re-evaluating avg_sim on every candidate assignment
// is prohibitive when done naively (Eq. 18, O(|C|²) pairwise sims) and
// cheap via the representative identity (Eq. 26, one sparse dot). This
// micro-benchmark measures both paths across cluster sizes, plus the
// incremental add/remove maintenance against a full Refresh.

#include <benchmark/benchmark.h>

#include <memory>

#include "nidc/core/cluster.h"
#include "nidc/synth/tdt2_like_generator.h"

namespace nidc {
namespace {

// Shared fixture: a slice of the synthetic corpus and its ψ context.
struct Fixture {
  Fixture() {
    GeneratorOptions opts;
    opts.scale = 0.3;
    Tdt2LikeGenerator generator(opts);
    corpus = std::move(generator.Generate()).value();
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 365.0;
    model = std::make_unique<ForgettingModel>(corpus.get(), params);
    model->AdvanceTo(178.0);
    std::vector<DocId> ids;
    for (DocId d = 0; d < corpus->size(); ++d) ids.push_back(d);
    model->AddDocuments(ids);
    ctx = std::make_unique<SimilarityContext>(*model);
  }

  Cluster MakeCluster(size_t size) const {
    Cluster c;
    for (DocId d = 0; d < size; ++d) c.Add(d, *ctx);
    return c;
  }

  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<ForgettingModel> model;
  std::unique_ptr<SimilarityContext> ctx;
};

const Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_AvgSimIfAdded_Representative(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const size_t size = static_cast<size_t>(state.range(0));
  const Cluster cluster = f.MakeCluster(size);
  const DocId candidate = static_cast<DocId>(size);  // not a member
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.AvgSimIfAdded(candidate, *f.ctx));
  }
  state.SetComplexityN(static_cast<int64_t>(size));
}
BENCHMARK(BM_AvgSimIfAdded_Representative)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_AvgSim_NaivePairwise(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const size_t size = static_cast<size_t>(state.range(0));
  Cluster cluster = f.MakeCluster(size);
  const DocId candidate = static_cast<DocId>(size);
  for (auto _ : state) {
    // Naive protocol: physically add, recompute pairwise, remove again.
    cluster.Add(candidate, *f.ctx);
    benchmark::DoNotOptimize(cluster.AvgSimNaive(*f.ctx));
    cluster.Remove(candidate, *f.ctx);
  }
  state.SetComplexityN(static_cast<int64_t>(size));
}
BENCHMARK(BM_AvgSim_NaivePairwise)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity();

void BM_ClusterAddRemove_Incremental(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const size_t size = static_cast<size_t>(state.range(0));
  Cluster cluster = f.MakeCluster(size);
  const DocId candidate = static_cast<DocId>(size);
  for (auto _ : state) {
    cluster.Add(candidate, *f.ctx);
    cluster.Remove(candidate, *f.ctx);
  }
}
BENCHMARK(BM_ClusterAddRemove_Incremental)->RangeMultiplier(4)->Range(4, 1024);

void BM_ClusterRefresh_FromScratch(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const size_t size = static_cast<size_t>(state.range(0));
  Cluster cluster = f.MakeCluster(size);
  RefreshScratch scratch;
  for (auto _ : state) {
    cluster.Refresh(*f.ctx, &scratch);
    benchmark::DoNotOptimize(cluster.cr_self());
  }
}
BENCHMARK(BM_ClusterRefresh_FromScratch)->RangeMultiplier(4)->Range(4, 1024);

void BM_SimilarityContextBuild(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    SimilarityContext ctx(*f.model);
    benchmark::DoNotOptimize(ctx.size());
  }
}
BENCHMARK(BM_SimilarityContextBuild);

}  // namespace
}  // namespace nidc

BENCHMARK_MAIN();
