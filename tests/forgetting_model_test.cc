#include "nidc/forgetting/forgetting_model.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/synth/tdt2_like_generator.h"

namespace nidc {
namespace {

class ForgettingModelTest : public testing::Test {
 protected:
  void SetUp() override {
    // Five documents over ten days with overlapping vocabulary.
    corpus_.AddText("iraq weapons inspection crisis", 0.0, 1);
    corpus_.AddText("iraq sanctions united nations", 1.0, 1);
    corpus_.AddText("olympics skating gold medal", 2.0, 2);
    corpus_.AddText("olympics hockey final", 6.0, 2);
    corpus_.AddText("tobacco settlement senate", 9.0, 3);
  }

  ForgettingParams Params(double beta = 7.0, double gamma = 14.0) {
    ForgettingParams p;
    p.half_life_days = beta;
    p.life_span_days = gamma;
    return p;
  }

  std::vector<DocId> AllDocs() { return {0, 1, 2, 3, 4}; }

  Corpus corpus_;
};

TEST_F(ForgettingModelTest, AddDocumentsSetsWeights) {
  ForgettingModel m(&corpus_, Params());
  m.AddDocuments({0});
  EXPECT_DOUBLE_EQ(m.Weight(0), 1.0);
  EXPECT_TRUE(m.IsActive(0));
  EXPECT_FALSE(m.IsActive(1));
  EXPECT_EQ(m.num_active(), 1u);
}

TEST_F(ForgettingModelTest, PrDocIsNormalized) {
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(1.0);
  m.AddDocuments({0, 1});  // doc 0 back-dated, doc 1 fresh
  double total = 0.0;
  for (DocId id : m.active_docs()) total += m.PrDoc(id);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(ForgettingModelTest, OlderDocsHaveSmallerPr) {
  ForgettingModel m(&corpus_, Params());
  m.AddDocuments({0});           // acquired day 0
  m.AdvanceTo(2.0);
  m.AddDocuments({2});           // acquired day 2
  EXPECT_LT(m.PrDoc(0), m.PrDoc(2));
}

TEST_F(ForgettingModelTest, PrTermsSumToOne) {
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(9.0);
  m.AddDocuments(AllDocs());
  double total = 0.0;
  for (TermId t = 0; t < corpus_.vocabulary().size(); ++t) {
    total += m.PrTerm(t);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(ForgettingModelTest, IdfIsInverseSqrt) {
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(9.0);
  m.AddDocuments(AllDocs());
  const TermId iraq = corpus_.vocabulary().Lookup("iraq");
  ASSERT_NE(iraq, kInvalidTermId);
  EXPECT_NEAR(m.Idf(iraq), 1.0 / std::sqrt(m.PrTerm(iraq)), 1e-12);
}

TEST_F(ForgettingModelTest, IdfOfUnseenTermIsZero) {
  ForgettingModel m(&corpus_, Params());
  m.AddDocuments({0});
  EXPECT_DOUBLE_EQ(m.Idf(static_cast<TermId>(9999)), 0.0);
}

TEST_F(ForgettingModelTest, RareTermsGetHigherIdf) {
  // With equal document ages (equal weights), a term in one document is
  // rarer — hence higher idf — than a term in two. (With unequal ages the
  // comparison is weight-dependent by design.)
  Corpus corpus;
  corpus.AddText("iraq weapons inspection crisis", 0.0, 1);
  corpus.AddText("iraq sanctions united nations", 0.0, 1);
  corpus.AddText("tobacco settlement senate vote", 0.0, 3);
  ForgettingModel m(&corpus, Params());
  m.AddDocuments({0, 1, 2});
  const TermId iraq = corpus.vocabulary().Lookup("iraq");      // 2 docs
  const TermId senate = corpus.vocabulary().Lookup("senat");   // 1 doc
  ASSERT_NE(iraq, kInvalidTermId);
  ASSERT_NE(senate, kInvalidTermId);
  EXPECT_GT(m.Idf(senate), m.Idf(iraq));
}

TEST_F(ForgettingModelTest, ExpirationUsesEpsilon) {
  // β=7, γ=14 → ε=0.25; a doc acquired at day 0 falls below ε after
  // 14 days (weight 2^(-t/7) < 0.25 ⟺ t > 14).
  ForgettingModel m(&corpus_, Params(7.0, 14.0));
  m.AddDocuments({0});
  m.AdvanceTo(14.5);
  m.AddDocuments({4});  // fresh (acquired day 9, weight still high)
  const auto expired = m.ExpireDocuments();
  EXPECT_EQ(expired, (std::vector<DocId>{0}));
  EXPECT_FALSE(m.IsActive(0));
  EXPECT_TRUE(m.IsActive(4));
}

TEST_F(ForgettingModelTest, ExpirationExactlyAtBoundaryKept) {
  ForgettingModel m(&corpus_, Params(7.0, 14.0));
  m.AddDocuments({0});
  m.AdvanceTo(14.0);  // weight == ε exactly; dw < ε is strict
  EXPECT_TRUE(m.ExpireDocuments().empty());
}

TEST_F(ForgettingModelTest, ExpirationRemovesTermMass) {
  ForgettingModel m(&corpus_, Params(7.0, 7.0));  // ε = 0.5
  m.AddDocuments({0});
  m.AdvanceTo(9.0);
  m.AddDocuments({4});
  m.ExpireDocuments();  // doc 0 gone
  const TermId iraq = corpus_.vocabulary().Lookup("iraq");
  EXPECT_NEAR(m.PrTerm(iraq), 0.0, 1e-12);
  // Probabilities still normalized over the survivor.
  double total = 0.0;
  for (TermId t = 0; t < corpus_.vocabulary().size(); ++t) {
    total += m.PrTerm(t);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(ForgettingModelTest, RemoveDocumentExplicit) {
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(1.0);
  m.AddDocuments({0, 1});
  m.RemoveDocument(0);
  EXPECT_FALSE(m.IsActive(0));
  EXPECT_NEAR(m.PrDoc(1), 1.0, 1e-12);
}

// The headline incremental-statistics property: stepping day by day gives
// the same state as rebuilding everything from scratch (§5.1's claim).
TEST_F(ForgettingModelTest, IncrementalMatchesFromScratch) {
  ForgettingModel incremental(&corpus_, Params());
  // Feed documents in daily batches.
  for (int day = 0; day <= 9; ++day) {
    incremental.AdvanceTo(static_cast<double>(day));
    std::vector<DocId> batch;
    for (DocId id : {0, 1, 2, 3, 4}) {
      if (corpus_.doc(id).time >= day && corpus_.doc(id).time < day + 1) {
        batch.push_back(id);
      }
    }
    incremental.AddDocuments(batch);
    incremental.ExpireDocuments();
  }

  ForgettingModel scratch(&corpus_, Params());
  scratch.RebuildFromScratch(AllDocs(), 9.0);
  scratch.ExpireDocuments();

  ASSERT_EQ(incremental.num_active(), scratch.num_active());
  EXPECT_NEAR(incremental.TotalWeight(), scratch.TotalWeight(), 1e-9);
  for (DocId id : scratch.active_docs()) {
    EXPECT_NEAR(incremental.Weight(id), scratch.Weight(id), 1e-9) << id;
    EXPECT_NEAR(incremental.PrDoc(id), scratch.PrDoc(id), 1e-9) << id;
  }
  for (TermId t = 0; t < corpus_.vocabulary().size(); ++t) {
    EXPECT_NEAR(incremental.PrTerm(t), scratch.PrTerm(t), 1e-9) << t;
  }
}

TEST_F(ForgettingModelTest, RebuildResetsPreviousState) {
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(9.0);
  m.AddDocuments(AllDocs());
  m.AdvanceTo(20.0);
  m.RebuildFromScratch({4}, 9.0);
  EXPECT_EQ(m.num_active(), 1u);
  EXPECT_DOUBLE_EQ(m.Weight(4), 1.0);
  EXPECT_DOUBLE_EQ(m.now(), 9.0);
}

TEST_F(ForgettingModelTest, PureTimePassageKeepsPrTermInvariant) {
  // Decay hits S_k and tdw identically, so Pr(t_k) only moves on
  // arrival/expiration.
  ForgettingModel m(&corpus_, Params());
  m.AdvanceTo(1.0);
  m.AddDocuments({0, 1});
  const TermId iraq = corpus_.vocabulary().Lookup("iraq");
  const double before = m.PrTerm(iraq);
  m.AdvanceTo(5.0);
  EXPECT_NEAR(m.PrTerm(iraq), before, 1e-12);
}

// The memory gate of the model's dense arrays over the paper-scale stream
// (the scale-1 corpus a day at a time, β = 7, γ = 30). The term statistics
// hold one double and one presence byte per id, grown by half, so at most
// 13.5 heap bytes per term of the vocabulary seen so far; the document
// weights hold a DocId, a weight and a position per document, at most
// kMaxWeightBytes per document of the largest active set so far. This
// stream measured 13.47 and 33.08 at worst.
TEST(ForgettingModelMemoryTest, ArraysStayBoundedOverTheScaleOneStream) {
  constexpr double kMaxTermBytes = 13.5;
  constexpr double kMaxWeightBytes = 36.0;
  Result<std::unique_ptr<Corpus>> generated =
      Tdt2LikeGenerator(GeneratorOptions{}).Generate();
  ASSERT_TRUE(generated.ok());
  const Corpus& corpus = **generated;
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 30.0;

  ForgettingModel model(&corpus, params);
  size_t vocabulary = 0;  // the largest term id seen, plus one
  double worst_terms = 0.0;
  double worst_weights = 0.0;
  size_t peak_active = 0;
  DocId next = 0;
  for (int day = 0; next < corpus.size(); ++day) {
    std::vector<DocId> batch;
    for (; next < corpus.size() && corpus.doc(next).time < day + 1; ++next) {
      batch.push_back(next);
      for (const auto& e : corpus.doc(next).terms) {
        vocabulary = std::max<size_t>(vocabulary, size_t{e.id} + 1);
      }
    }
    model.AdvanceTo(day + 1);
    model.AddDocuments(batch);
    model.ExpireDocuments();
    if (vocabulary == 0) continue;
    worst_terms = std::max(worst_terms, static_cast<double>(model.TermBytes()) /
                                            static_cast<double>(vocabulary));
    peak_active = std::max(peak_active, model.num_active());
    worst_weights =
        std::max(worst_weights, static_cast<double>(model.WeightBytes()) /
                                    static_cast<double>(peak_active));
  }
  EXPECT_GT(worst_terms, 0.0);
  EXPECT_LE(worst_terms, kMaxTermBytes);
  EXPECT_GT(worst_weights, 0.0);
  EXPECT_LE(worst_weights, kMaxWeightBytes);
  RecordProperty("worst_term_bytes", std::to_string(worst_terms));
  RecordProperty("worst_weight_bytes", std::to_string(worst_weights));
}

}  // namespace
}  // namespace nidc
