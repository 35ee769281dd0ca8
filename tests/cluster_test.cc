#include "nidc/core/cluster.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/util/random.h"
#include "sparse_value.h"

namespace nidc {
namespace {

// Builds a corpus of `n` random synthetic documents and a similarity
// context over all of them.
class ClusterFixture {
 public:
  explicit ClusterFixture(size_t n, uint64_t seed = 99) {
    Rng rng(seed);
    const char* words[] = {"alpha", "beta",  "gamma", "delta", "epsilon",
                           "zeta",  "theta", "kappa", "sigma", "omega"};
    for (size_t i = 0; i < n; ++i) {
      std::string text;
      const size_t len = 4 + rng.NextBounded(8);
      for (size_t j = 0; j < len; ++j) {
        if (!text.empty()) text += ' ';
        text += words[rng.NextBounded(10)];
      }
      corpus_.AddText(text, static_cast<double>(i) * 0.5, 1);
    }
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(static_cast<double>(n) * 0.5);
    std::vector<DocId> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<DocId>(i));
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  const SimilarityContext& ctx() const { return *ctx_; }

 private:
  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST(ClusterTest, EmptyClusterBasics) {
  Cluster c;
  EXPECT_TRUE(c.empty());
  EXPECT_DOUBLE_EQ(c.AvgSim(), 0.0);
  EXPECT_DOUBLE_EQ(c.cr_self(), 0.0);
  EXPECT_DOUBLE_EQ(c.ss(), 0.0);
}

TEST(ClusterTest, SingletonHasZeroAvgSim) {
  ClusterFixture f(3);
  Cluster c;
  c.Add(0, f.ctx());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.AvgSim(), 0.0);
  // cr_self of a singleton is the self-similarity (Eq. 22 with |C|=1).
  EXPECT_NEAR(c.cr_self(), f.ctx().SelfSim(0), 1e-15);
  EXPECT_NEAR(c.ss(), f.ctx().SelfSim(0), 1e-15);
}

TEST(ClusterTest, PairAvgSimIsPairSimilarity) {
  ClusterFixture f(3);
  Cluster c;
  c.Add(0, f.ctx());
  c.Add(1, f.ctx());
  // avg_sim({a,b}) = (sim(a,b) + sim(b,a)) / 2 = sim(a,b).
  EXPECT_NEAR(c.AvgSim(), f.ctx().Sim(0, 1), 1e-12);
}

TEST(ClusterTest, Eq22IdentityHolds) {
  // cr_sim(C,C) = |C|(|C|-1)·avg_sim(C) + ss(C), with avg_sim computed
  // naively from pairwise similarities.
  ClusterFixture f(12);
  Cluster c;
  for (DocId d = 0; d < 12; ++d) c.Add(d, f.ctx());
  const double n = 12.0;
  EXPECT_NEAR(c.cr_self(),
              n * (n - 1.0) * c.AvgSimNaive(f.ctx()) + c.ss(), 1e-9);
}

TEST(ClusterTest, AvgSimMatchesNaiveAsClusterGrows) {
  ClusterFixture f(20);
  Cluster c;
  for (DocId d = 0; d < 20; ++d) {
    c.Add(d, f.ctx());
    EXPECT_NEAR(c.AvgSim(), c.AvgSimNaive(f.ctx()), 1e-9) << "n=" << d + 1;
  }
}

TEST(ClusterTest, AvgSimIfAddedMatchesActualAdd) {
  // Eq. 26 (the fast gain path) must predict exactly what Add produces.
  ClusterFixture f(15);
  Cluster c;
  for (DocId d = 0; d < 10; ++d) c.Add(d, f.ctx());
  for (DocId d = 10; d < 15; ++d) {
    const double predicted = c.AvgSimIfAdded(d, f.ctx());
    Cluster copy = c;
    copy.Add(d, f.ctx());
    EXPECT_NEAR(predicted, copy.AvgSim(), 1e-9) << d;
  }
}

TEST(ClusterTest, RemoveIsInverseOfAdd) {
  // The paper omits the deletion formulas; verify ours against recompute.
  ClusterFixture f(12);
  Cluster c;
  for (DocId d = 0; d < 12; ++d) c.Add(d, f.ctx());
  const double avg_before = c.AvgSim();
  c.Remove(7, f.ctx());
  EXPECT_EQ(c.size(), 11u);
  EXPECT_FALSE(c.Contains(7));
  EXPECT_NEAR(c.AvgSim(), c.AvgSimNaive(f.ctx()), 1e-9);
  c.Add(7, f.ctx());
  EXPECT_NEAR(c.AvgSim(), avg_before, 1e-9);
}

TEST(ClusterTest, RemoveDownToEmptySnapsToZero) {
  ClusterFixture f(4);
  Cluster c;
  c.Add(0, f.ctx());
  c.Add(1, f.ctx());
  c.Remove(0, f.ctx());
  c.Remove(1, f.ctx());
  EXPECT_TRUE(c.empty());
  EXPECT_DOUBLE_EQ(c.cr_self(), 0.0);
  EXPECT_DOUBLE_EQ(c.ss(), 0.0);
  EXPECT_TRUE(c.representative().empty());
}

TEST(ClusterTest, RepresentativeIsSumOfPsi) {
  ClusterFixture f(6);
  Cluster c;
  SparseVector expected;
  for (DocId d = 0; d < 6; ++d) {
    c.Add(d, f.ctx());
    expected.AddScaled(f.ctx().Psi(d), 1.0);
  }
  for (const auto& e : expected.entries()) {
    EXPECT_NEAR(ValueAt(c.representative(), e.id), e.value, 1e-12);
  }
}

TEST(ClusterTest, CrSimWithDocIsRepresentativeDot) {
  ClusterFixture f(8);
  Cluster c;
  for (DocId d = 0; d < 5; ++d) c.Add(d, f.ctx());
  // cr_sim(C, {d}) = Σ_{x∈C} sim(x, d) (Eq. 21 for singleton q).
  for (DocId d = 5; d < 8; ++d) {
    double expected = 0.0;
    for (DocId x = 0; x < 5; ++x) expected += f.ctx().Sim(x, d);
    EXPECT_NEAR(c.CrSimWithDoc(d, f.ctx()), expected, 1e-12);
  }
}

TEST(ClusterTest, Eq25UnionIdentity) {
  // avg_sim(C_p ∪ C_q) from the two representatives (Eq. 25) equals the
  // naive recompute on the union.
  ClusterFixture f(14);
  Cluster p;
  Cluster q;
  for (DocId d = 0; d < 8; ++d) p.Add(d, f.ctx());
  for (DocId d = 8; d < 14; ++d) q.Add(d, f.ctx());
  const double np = 8.0;
  const double nq = 6.0;
  const double eq25 =
      (p.cr_self() + 2.0 * p.representative().Dot(q.representative()) +
       q.cr_self() - p.ss() - q.ss()) /
      ((np + nq) * (np + nq - 1.0));
  Cluster merged;
  for (DocId d = 0; d < 14; ++d) merged.Add(d, f.ctx());
  EXPECT_NEAR(eq25, merged.AvgSimNaive(f.ctx()), 1e-9);
  EXPECT_NEAR(eq25, merged.AvgSim(), 1e-9);
}

TEST(ClusterTest, RefreshClearsDrift) {
  ClusterFixture f(10);
  Cluster c;
  // Heavy add/remove churn to accumulate float drift.
  for (int round = 0; round < 50; ++round) {
    for (DocId d = 0; d < 10; ++d) {
      if (c.Contains(d)) {
        c.Remove(d, f.ctx());
      } else {
        c.Add(d, f.ctx());
      }
    }
  }
  const double naive = c.AvgSimNaive(f.ctx());
  RefreshScratch scratch;
  c.Refresh(f.ctx(), &scratch);
  EXPECT_NEAR(c.AvgSim(), naive, 1e-12);
  EXPECT_NEAR(c.cr_self(), c.representative().SquaredNorm(), 1e-12);
}

// A context over documents 1..5 of a corpus whose document 0 mints the
// lowest global term ids, so local ids (first appearance over the active
// documents) do not ascend with global ids: "alpha" is global 0 but takes
// a local id after document 1's terms.
class OutOfOrderContext {
 public:
  OutOfOrderContext() {
    const char* texts[] = {"alpha beta gamma delta",
                           "epsilon zeta eta theta epsilon",
                           "alpha epsilon iota kappa alpha alpha",
                           "beta zeta kappa lambda",
                           "gamma delta theta lambda mu",
                           "alpha mu nu nu"};
    for (const char* text : texts) corpus_.AddText(text, 0.0, 1);
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(1.0);
    model_->AddDocuments({1, 2, 3, 4, 5});
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  const SimilarityContext& ctx() const { return *ctx_; }

 private:
  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Checks c's refreshed statistics bit for bit against the merge-based
// refresh: one sorted AddScaled(ψ, 1.0) per member, in member order, then
// cr_self as the representative's SquaredNorm.
void ExpectMergeRefreshBits(const Cluster& c, const SimilarityContext& ctx) {
  SparseVector rep;
  double ss = 0.0;
  for (DocId id : c.members()) {
    rep.AddScaled(ctx.Psi(id), 1.0);
    ss += ctx.SelfSim(id);
  }
  const auto& got = c.representative().entries();
  ASSERT_EQ(got.size(), rep.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, rep.entries()[i].id) << i;
    EXPECT_EQ(Bits(got[i].value), Bits(rep.entries()[i].value)) << i;
  }
  EXPECT_EQ(Bits(c.cr_self()), Bits(rep.SquaredNorm()));
  EXPECT_EQ(Bits(c.ss()), Bits(ss));
}

size_t PsiEntries(const Cluster& c, const SimilarityContext& ctx) {
  size_t n = 0;
  for (DocId id : c.members()) n += ctx.Psi(id).size;
  return n;
}

TEST(ClusterRefreshTest, OutOfOrderContextHasDescendingLocalIds) {
  // The precondition the dense-refresh tests below rely on.
  OutOfOrderContext f;
  bool descending = false;
  for (uint32_t t = 1; t < f.ctx().num_local_terms(); ++t) {
    descending |= f.ctx().GlobalTerm(t) < f.ctx().GlobalTerm(t - 1);
  }
  EXPECT_TRUE(descending);
}

TEST(ClusterRefreshTest, DenseRefreshMatchesMergeRefreshInAnyMemberOrder) {
  OutOfOrderContext out_of_order;
  ClusterFixture random(30, 5);
  RefreshScratch scratch;
  Rng rng(17);
  for (const SimilarityContext* ctx : {&out_of_order.ctx(), &random.ctx()}) {
    for (int round = 0; round < 12; ++round) {
      std::vector<DocId> order = ctx->docs();
      rng.Shuffle(&order);
      order.resize(1 + rng.NextBounded(order.size()));
      Cluster c;
      for (DocId id : order) c.Add(id, *ctx);
      SCOPED_TRACE("round " + std::to_string(round) + ", " +
                   std::to_string(order.size()) + " members");
      EXPECT_EQ(c.Refresh(*ctx, &scratch), PsiEntries(c, *ctx));
      ExpectMergeRefreshBits(c, *ctx);
    }
  }
}

TEST(ClusterRefreshTest, DenseRefreshOfSingletonAndEmptiedThenRefilled) {
  OutOfOrderContext f;
  RefreshScratch scratch;
  Cluster c;
  c.Add(2, f.ctx());
  c.Refresh(f.ctx(), &scratch);
  ExpectMergeRefreshBits(c, f.ctx());

  for (DocId id : {4, 1, 3}) c.Add(id, f.ctx());
  for (DocId id : {2, 1, 4, 3}) c.Remove(id, f.ctx());
  ASSERT_TRUE(c.empty());
  EXPECT_EQ(c.Refresh(f.ctx(), &scratch), 0u);
  EXPECT_TRUE(c.representative().empty());
  EXPECT_EQ(Bits(c.cr_self()), Bits(0.0));
  EXPECT_EQ(Bits(c.ss()), Bits(0.0));

  for (DocId id : {5, 3, 2}) c.Add(id, f.ctx());
  c.Refresh(f.ctx(), &scratch);
  ExpectMergeRefreshBits(c, f.ctx());
}

TEST(ClusterRefreshTest, ScratchIsCleanAcrossClustersAndVocabularies) {
  // One scratch, alternating between two contexts whose local ids name
  // different terms: a slot left marked by one refresh would fold a stale
  // sum into the next.
  OutOfOrderContext small;
  ClusterFixture large(25, 8);
  Cluster a;
  for (DocId id : {3, 1, 5}) a.Add(id, small.ctx());
  Cluster b;
  for (DocId id : {7, 0, 19, 4, 11}) b.Add(id, large.ctx());
  Cluster c;
  for (DocId id : {2, 4}) c.Add(id, small.ctx());
  RefreshScratch scratch;
  for (int round = 0; round < 2; ++round) {
    a.Refresh(small.ctx(), &scratch);
    ExpectMergeRefreshBits(a, small.ctx());
    b.Refresh(large.ctx(), &scratch);
    ExpectMergeRefreshBits(b, large.ctx());
    c.Refresh(small.ctx(), &scratch);
    ExpectMergeRefreshBits(c, small.ctx());
  }
}

// Parameterized sweep: the Eq. 24/26 identities hold across corpus sizes
// and seeds.
class ClusterPropertyTest
    : public testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ClusterPropertyTest, FastPathsMatchNaive) {
  const auto [n, seed] = GetParam();
  ClusterFixture f(n, seed);
  Rng rng(seed ^ 0x777);
  Cluster c;
  std::vector<bool> in(n, false);
  for (int step = 0; step < 200; ++step) {
    const DocId d = static_cast<DocId>(rng.NextBounded(n));
    if (in[d]) {
      c.Remove(d, f.ctx());
      in[d] = false;
    } else {
      // Check the gain prediction right before the mutation.
      const double predicted = c.AvgSimIfAdded(d, f.ctx());
      c.Add(d, f.ctx());
      in[d] = true;
      EXPECT_NEAR(predicted, c.AvgSim(), 1e-8);
    }
  }
  EXPECT_NEAR(c.AvgSim(), c.AvgSimNaive(f.ctx()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterPropertyTest,
    testing::Combine(testing::Values(size_t{5}, size_t{15}, size_t{30}),
                     testing::Values(uint64_t{1}, uint64_t{9},
                                     uint64_t{1234})));

}  // namespace
}  // namespace nidc
