// Cross-module property tests: invariants that must hold over randomized
// corpora and parameter sweeps, independent of any particular data set.

#include <algorithm>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "nidc/core/hot_topics.h"
#include "nidc/core/incremental_clusterer.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/corpus/stream.h"
#include "nidc/eval/f1_measures.h"
#include "nidc/synth/tdt2_like_generator.h"
#include "temp_path.h"

namespace nidc {
namespace {

// One reduced-scale corpus per (seed) parameter, clustered with the
// extended K-means; checks structural invariants of the result.
class ClusteringInvariantsTest
    : public testing::TestWithParam<std::tuple<uint64_t, double, size_t>> {
 protected:
  void SetUp() override {
    const auto [seed, beta, k] = GetParam();
    GeneratorOptions gopts;
    gopts.scale = 0.06;
    gopts.seed = seed;
    Tdt2LikeGenerator generator(gopts);
    corpus_ = std::move(generator.Generate()).value();

    const TimeWindow w = PaperWindows()[1];
    docs_ = corpus_->DocsInRange(w.begin, w.end);
    ASSERT_GT(docs_.size(), 20u);

    ForgettingParams params;
    params.half_life_days = beta;
    params.life_span_days = 30.0;
    ExtendedKMeansOptions kmeans;
    kmeans.k = k;
    kmeans.seed = seed ^ 0xC0;
    BatchClusterer clusterer(corpus_.get(), params, kmeans);
    auto run = clusterer.Run(docs_, w.end);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    result_ = run->clustering;
  }

  std::unique_ptr<Corpus> corpus_;
  std::vector<DocId> docs_;
  ClusteringResult result_;
};

TEST_P(ClusteringInvariantsTest, ResultIsAPartition) {
  // Every input document appears exactly once: in one cluster or on the
  // outlier list; nothing else appears.
  std::set<DocId> seen;
  for (const auto& members : result_.clusters) {
    for (DocId d : members) {
      EXPECT_TRUE(seen.insert(d).second) << "duplicate doc " << d;
    }
  }
  for (DocId d : result_.outliers) {
    EXPECT_TRUE(seen.insert(d).second) << "outlier also clustered: " << d;
  }
  EXPECT_EQ(seen.size(), docs_.size());
  for (DocId d : docs_) EXPECT_TRUE(seen.contains(d));
}

TEST_P(ClusteringInvariantsTest, GMatchesAvgSims) {
  double g = 0.0;
  for (size_t p = 0; p < result_.clusters.size(); ++p) {
    g += static_cast<double>(result_.clusters[p].size()) *
         result_.avg_sims[p];
  }
  EXPECT_NEAR(result_.g, g, 1e-9);
  EXPECT_GE(result_.g, 0.0);
}

TEST_P(ClusteringInvariantsTest, GHistoryConsistent) {
  ASSERT_EQ(result_.g_history.size(),
            static_cast<size_t>(result_.iterations) + 1);
  EXPECT_DOUBLE_EQ(result_.g_history.back(), result_.g);
}

TEST_P(ClusteringInvariantsTest, AvgSimsNonNegativeAndSingletonsZero) {
  for (size_t p = 0; p < result_.clusters.size(); ++p) {
    EXPECT_GE(result_.avg_sims[p], -1e-12);
    if (result_.clusters[p].size() <= 1) {
      EXPECT_DOUBLE_EQ(result_.avg_sims[p], 0.0);
    }
  }
}

TEST_P(ClusteringInvariantsTest, MarkingTablesAreConsistent) {
  auto marked = MarkClusters(*corpus_, result_.clusters, docs_, {});
  for (const MarkedCluster& mc : marked) {
    if (!mc.marked()) continue;
    // a + b == cluster size; a + c == topic size within the universe.
    EXPECT_EQ(mc.table.a + mc.table.b, mc.cluster_size);
    size_t topic_size = 0;
    for (DocId d : docs_) {
      if (corpus_->doc(d).topic == mc.topic) ++topic_size;
    }
    EXPECT_EQ(mc.table.a + mc.table.c, topic_size);
    // All four cells tile the evaluation universe.
    EXPECT_EQ(mc.table.a + mc.table.b + mc.table.c + mc.table.d,
              docs_.size());
    EXPECT_GE(mc.precision, 0.6);
  }
  const GlobalF1 f1 = ComputeGlobalF1(marked);
  EXPECT_GE(f1.micro_f1, 0.0);
  EXPECT_LE(f1.micro_f1, 1.0);
  EXPECT_LE(f1.macro_f1, 1.0);
}

TEST_P(ClusteringInvariantsTest, HotTopicMassesBounded) {
  ForgettingParams params;
  params.half_life_days = std::get<1>(GetParam());
  params.life_span_days = 30.0;
  ForgettingModel model(corpus_.get(), params);
  model.RebuildFromScratch(docs_, PaperWindows()[1].end);
  HotTopicOptions opts;
  opts.max_topics = 0;
  const auto digest = RankHotTopics(model, result_, opts);
  double total = 0.0;
  for (const HotTopic& topic : digest) {
    EXPECT_GE(topic.mass, 0.0);
    total += topic.mass;
  }
  EXPECT_LE(total, 1.0 + 1e-9);
  // Digest is sorted by mass.
  for (size_t i = 1; i < digest.size(); ++i) {
    EXPECT_GE(digest[i - 1].mass, digest[i].mass);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusteringInvariantsTest,
    testing::Combine(testing::Values(uint64_t{11}, uint64_t{22},
                                     uint64_t{33}),
                     testing::Values(7.0, 30.0),
                     testing::Values(size_t{8}, size_t{20})));

// Generator → corpus-file → reload round trip preserves everything the
// pipeline consumes.
TEST(RoundTripInvariantsTest, GeneratedCorpusSurvivesDiskRoundTrip) {
  GeneratorOptions gopts;
  gopts.scale = 0.05;
  Tdt2LikeGenerator generator(gopts);
  auto raw = generator.GenerateRaw();
  ASSERT_TRUE(raw.ok());

  const std::string path = TestTempPath("nidc_roundtrip.tsv");
  ASSERT_TRUE(SaveRawDocuments(path, *raw).ok());
  auto reloaded = LoadCorpus(path);
  ASSERT_TRUE(reloaded.ok());
  std::remove(path.c_str());

  // Build the original corpus directly and compare document by document.
  auto original = generator.Generate();
  ASSERT_TRUE(original.ok());
  ASSERT_EQ((*original)->size(), (*reloaded)->size());
  for (DocId d = 0; d < (*original)->size(); ++d) {
    const Document& a = (*original)->doc(d);
    const Document& b = (*reloaded)->doc(d);
    EXPECT_EQ(a.topic, b.topic);
    EXPECT_NEAR(a.time, b.time, 1e-6);
    EXPECT_EQ(a.source, b.source);
    EXPECT_DOUBLE_EQ(a.Length(), b.Length());
    EXPECT_EQ(a.terms.size(), b.terms.size());
  }
  // Vocabularies were built in the same order → identical interning.
  EXPECT_EQ((*original)->vocabulary().size(),
            (*reloaded)->vocabulary().size());
}

// The incremental clusterer's bookkeeping stays exact over a long stream
// with heavy expiration churn.
TEST(LongRunInvariantsTest, ActiveSetAlwaysMatchesWeights) {
  GeneratorOptions gopts;
  gopts.scale = 0.05;
  gopts.seed = 777;
  Tdt2LikeGenerator generator(gopts);
  auto corpus = std::move(generator.Generate()).value();

  ForgettingParams params;
  params.half_life_days = 3.0;
  params.life_span_days = 6.0;  // aggressive churn
  IncrementalOptions opts;
  opts.kmeans.k = 8;
  IncrementalClusterer clusterer(corpus.get(), params, opts);

  DocumentStream stream(corpus.get(), 0.0, 178.0, 2.0);
  while (auto batch = stream.Next()) {
    auto step = clusterer.Step(batch->docs, batch->end);
    if (!step.ok()) continue;
    const ForgettingModel& model = clusterer.model();
    double sum = 0.0;
    for (DocId id : model.active_docs()) {
      const double w = model.Weight(id);
      EXPECT_GE(w, params.Epsilon());  // expiration is complete
      EXPECT_LE(w, 1.0 + 1e-12);
      sum += w;
    }
    EXPECT_NEAR(model.TotalWeight(), sum, 1e-6 * std::max(1.0, sum));
    // Clustering covered exactly the active set.
    EXPECT_EQ(step->clustering.TotalAssigned() +
                  step->clustering.outliers.size(),
              model.num_active());
  }
}

}  // namespace
}  // namespace nidc
