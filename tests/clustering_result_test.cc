#include "nidc/core/clustering_result.h"

#include <memory>
#include <utility>

#include <gtest/gtest.h>

namespace nidc {
namespace {

class ClusteringResultTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("apple apple orchard", 0.0);
    corpus_.AddText("apple pie orchard", 0.0);
    corpus_.AddText("stock market crash", 0.0);
    ForgettingParams p;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AddDocuments({0, 1, 2});
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  ClusteringResult MakeResult() {
    ClusterSet set(2);
    set.Assign(0, 0, *ctx_);
    set.Assign(1, 0, *ctx_);
    set.Assign(2, 1, *ctx_);
    return ClusteringResult::FromClusterSet(std::move(set), {99}, {0.0, 1.0},
                                            2, true);
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST_F(ClusteringResultTest, SnapshotCarriesClusters) {
  ClusteringResult r = MakeResult();
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[0], (std::vector<DocId>{0, 1}));
  EXPECT_EQ(r.clusters[1], (std::vector<DocId>{2}));
  EXPECT_EQ(r.outliers, (std::vector<DocId>{99}));
  EXPECT_EQ(r.iterations, 2);
  EXPECT_TRUE(r.converged);
}

TEST_F(ClusteringResultTest, ClusterOfFindsMembership) {
  ClusteringResult r = MakeResult();
  EXPECT_EQ(r.ClusterOf(0), 0);
  EXPECT_EQ(r.ClusterOf(2), 1);
  EXPECT_EQ(r.ClusterOf(99), kUnassigned);
}

TEST_F(ClusteringResultTest, CountsNonEmptyAndAssigned) {
  ClusteringResult r = MakeResult();
  EXPECT_EQ(r.NumNonEmpty(), 2u);
  EXPECT_EQ(r.TotalAssigned(), 3u);
}

TEST_F(ClusteringResultTest, AvgSimsMatchClusterState) {
  ClusteringResult r = MakeResult();
  EXPECT_NEAR(r.avg_sims[0], ctx_->Sim(0, 1), 1e-12);
  EXPECT_DOUBLE_EQ(r.avg_sims[1], 0.0);  // singleton
}

TEST_F(ClusteringResultTest, TopTermsComeFromRepresentative) {
  ClusteringResult r = MakeResult();
  const auto terms = r.TopTerms(0, corpus_.vocabulary(), 2);
  ASSERT_EQ(terms.size(), 2u);
  // Cluster 0 is the apple/orchard cluster; "appl" dominates (3 counts).
  EXPECT_EQ(terms[0], "appl");
}

TEST_F(ClusteringResultTest, TopTermsOutOfRangeClusterIsEmpty) {
  ClusteringResult r = MakeResult();
  EXPECT_TRUE(r.TopTerms(7, corpus_.vocabulary(), 3).empty());
}

TEST_F(ClusteringResultTest, TopTermsRespectsLimit) {
  ClusteringResult r = MakeResult();
  EXPECT_LE(r.TopTerms(0, corpus_.vocabulary(), 1).size(), 1u);
  // Asking for more terms than the representative has is fine.
  EXPECT_LE(r.TopTerms(1, corpus_.vocabulary(), 50).size(), 3u);
}

}  // namespace
}  // namespace nidc
