#include "nidc/core/novelty_similarity.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "nidc/synth/tdt2_like_generator.h"

namespace nidc {
namespace {

class NoveltySimilarityTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("iraq weapons inspection crisis baghdad", 0.0, 1);
    corpus_.AddText("iraq sanctions weapons united nations", 1.0, 1);
    corpus_.AddText("olympics skating gold medal nagano", 2.0, 2);
    corpus_.AddText("olympics hockey final nagano games", 3.0, 2);
    corpus_.AddText("tobacco settlement senate vote", 4.0, 3);
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 30.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(4.0);
    model_->AddDocuments({0, 1, 2, 3, 4});
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
};

TEST_F(NoveltySimilarityTest, FactoredFormMatchesReference) {
  // ψ_i · ψ_j must equal the literal Eq. 16 computation.
  SimilarityContext ctx(*model_);
  for (DocId a = 0; a < 5; ++a) {
    for (DocId b = 0; b < 5; ++b) {
      EXPECT_NEAR(ctx.Sim(a, b), NoveltySimilarityReference(*model_, a, b),
                  1e-12)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST_F(NoveltySimilarityTest, Eq11PreTfidfFormAgrees) {
  // The chain of transformations §3 performs must be exact: the Eq. 11
  // form  Pr(d_i)Pr(d_j)/(Σf_il·Σf_jl) · Σ_k f_ik·f_jk/Pr(t_k)  equals the
  // factored ψ_i·ψ_j.
  SimilarityContext ctx(*model_);
  for (DocId a = 0; a < 5; ++a) {
    for (DocId b = 0; b < 5; ++b) {
      const Document& da = corpus_.doc(a);
      const Document& db = corpus_.doc(b);
      double weighted_overlap = 0.0;
      for (const auto& e : da.terms.entries()) {
        const double fb = db.terms.ValueAt(e.id);
        if (fb == 0.0) continue;
        const double pr_t = model_->PrTerm(e.id);
        ASSERT_GT(pr_t, 0.0);
        const double fa = e.count;
        weighted_overlap += fa * fb / pr_t;
      }
      const double eq11 = model_->PrDoc(a) * model_->PrDoc(b) /
                          (da.Length() * db.Length()) * weighted_overlap;
      EXPECT_NEAR(ctx.Sim(a, b), eq11, 1e-12) << a << "," << b;
    }
  }
}

TEST_F(NoveltySimilarityTest, SimilarityIsSymmetric) {
  SimilarityContext ctx(*model_);
  for (DocId a = 0; a < 5; ++a) {
    for (DocId b = a + 1; b < 5; ++b) {
      EXPECT_DOUBLE_EQ(ctx.Sim(a, b), ctx.Sim(b, a));
    }
  }
}

TEST_F(NoveltySimilarityTest, SimilarityIsNonNegative) {
  SimilarityContext ctx(*model_);
  for (DocId a = 0; a < 5; ++a) {
    for (DocId b = 0; b < 5; ++b) {
      EXPECT_GE(ctx.Sim(a, b), 0.0);
    }
  }
}

TEST_F(NoveltySimilarityTest, SameTopicPairsScoreHigher) {
  SimilarityContext ctx(*model_);
  // Docs 0,1 share iraq/weapons; docs 2,3 share olympics/nagano; cross
  // pairs share nothing.
  EXPECT_GT(ctx.Sim(0, 1), ctx.Sim(0, 2));
  EXPECT_GT(ctx.Sim(2, 3), ctx.Sim(1, 3));
  EXPECT_DOUBLE_EQ(ctx.Sim(0, 4), 0.0);  // disjoint vocabulary
}

TEST_F(NoveltySimilarityTest, SelfSimMatchesSim) {
  SimilarityContext ctx(*model_);
  for (DocId d = 0; d < 5; ++d) {
    EXPECT_NEAR(ctx.SelfSim(d), ctx.Sim(d, d), 1e-15);
  }
}

TEST_F(NoveltySimilarityTest, OlderDocumentsLoseSimilarity) {
  // The novelty effect (§3): as a document ages, its similarity with every
  // other document shrinks because Pr(d_i) shrinks.
  SimilarityContext before(*model_);
  const double sim_before = before.Sim(0, 1);

  model_->AdvanceTo(20.0);  // pure aging, no arrivals
  SimilarityContext after(*model_);
  const double sim_after = after.Sim(0, 1);

  // Both docs aged equally and Pr(t_k) is passage-invariant, but their
  // Pr(d) values are unchanged relative to tdw... similarity is invariant
  // under *uniform* aging. Add a fresh document to steal probability mass:
  corpus_.AddText("unrelated fresh story entirely", 20.0, 9);
  model_->AddDocuments({5});
  SimilarityContext diluted(*model_);
  EXPECT_LT(diluted.Sim(0, 1), sim_before);
  EXPECT_NEAR(sim_after, sim_before, 1e-9);
}

TEST_F(NoveltySimilarityTest, FreshDocPairOutscoresAgedPairOnEqualText) {
  // Two identical-text pairs, one old, one new: the new pair must score
  // higher under the forgetting model.
  Corpus corpus;
  corpus.AddText("alpha beta gamma", 0.0, 1);
  corpus.AddText("alpha beta gamma", 0.0, 1);
  corpus.AddText("alpha beta gamma", 10.0, 1);
  corpus.AddText("alpha beta gamma", 10.0, 1);
  ForgettingParams p;
  p.half_life_days = 7.0;
  p.life_span_days = 60.0;
  ForgettingModel model(&corpus, p);
  model.AddDocuments({0, 1});
  model.AdvanceTo(10.0);
  model.AddDocuments({2, 3});
  SimilarityContext ctx(model);
  EXPECT_GT(ctx.Sim(2, 3), ctx.Sim(0, 1));
  // And the mixed pair sits in between.
  EXPECT_GT(ctx.Sim(2, 3), ctx.Sim(0, 2));
  EXPECT_GT(ctx.Sim(0, 2), ctx.Sim(0, 1));
}

TEST_F(NoveltySimilarityTest, ContextSnapshotsActiveDocsOnly) {
  model_->RemoveDocument(2);
  SimilarityContext ctx(*model_);
  EXPECT_EQ(ctx.size(), 4u);
  EXPECT_FALSE(ctx.Contains(2));
  EXPECT_TRUE(ctx.Contains(0));
}

// ψ_i built the way the context built it before the arena held it alone:
// a SparseVector of unit·f·idf per kept term.
SparseVector ReferencePsi(const ForgettingModel& model, DocId id) {
  const Document& doc = model.corpus().doc(id);
  const double len = doc.Length();
  const double pr = model.PrDoc(id);
  std::vector<SparseVector::Entry> entries;
  if (len > 0.0 && pr > 0.0) {
    const double unit = pr / len;
    for (const auto& e : doc.terms.entries()) {
      const double idf = model.Idf(e.id);
      if (idf <= 0.0) continue;
      entries.push_back({e.id, unit * e.count * idf});
    }
  }
  return SparseVector::FromEntries(std::move(entries));
}

TEST(SimilarityContextArenaTest, EveryRowEqualsTheReferencePsiBitForBit) {
  GeneratorOptions options;
  options.scale = 0.1;
  Result<std::unique_ptr<Corpus>> corpus =
      Tdt2LikeGenerator(options).Generate();
  ASSERT_TRUE(corpus.ok());
  // The window starts past the corpus's first documents, so local term ids
  // (first appearance over the window) differ from the global ones (first
  // appearance over the corpus).
  std::vector<DocId> ids(400);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<DocId>(100 + i);
  ForgettingParams p;
  p.half_life_days = 7.0;
  p.life_span_days = 365.0;
  ForgettingModel model(corpus->get(), p);
  model.AdvanceTo((*corpus)->doc(ids.back()).time);
  model.AddDocuments(ids);
  SimilarityContext ctx(model);
  ASSERT_EQ(ctx.size(), ids.size());
  size_t entries = 0;
  for (DocId id : ids) {
    const SparseVector ref = ReferencePsi(model, id);
    const SimilarityContext::Row row = ctx.Psi(id);
    ASSERT_EQ(row.size, ref.size()) << "doc " << id;
    for (size_t i = 0; i < row.size; ++i) {
      EXPECT_EQ(row.id(i), ref.entries()[i].id) << "doc " << id;
      EXPECT_EQ(row.value(i), ref.entries()[i].value) << "doc " << id;
      EXPECT_EQ(ctx.LocalTerm(row.id(i)), row.terms[i]) << "doc " << id;
    }
    EXPECT_EQ(ctx.SelfSim(id), ref.SquaredNorm()) << "doc " << id;
    entries += row.size;
  }
  EXPECT_EQ(ctx.num_entries(), entries);
  size_t remapped = 0;
  for (uint32_t t = 0; t < ctx.num_local_terms(); ++t) {
    remapped += ctx.GlobalTerm(t) != t;
  }
  EXPECT_GT(remapped, 0u);
  // Sim is the reference vectors' dot product, bit for bit.
  for (size_t i = 0; i + 1 < ids.size(); i += 7) {
    EXPECT_EQ(ctx.Sim(ids[i], ids[i + 1]),
              ReferencePsi(model, ids[i]).Dot(ReferencePsi(model, ids[i + 1])));
  }
}

TEST(SimilarityContextArenaTest, SlotTableSpansTheActiveIdsOnly) {
  // A long-lived tenant releases the documents its model forgot; the
  // context must not allocate a slot per id ever issued.
  constexpr DocId kReleased = 1000000;
  Corpus corpus;
  for (DocId id = 0; id < kReleased; ++id) {
    corpus.Add(Document{});
    if (id % 65536 == 65535) corpus.ReleaseBefore(id + 1);
  }
  corpus.ReleaseBefore(kReleased);
  corpus.AddText("iraq weapons inspection", 1.0, 1);
  corpus.AddText("olympics skating gold", 1.5, 2);
  corpus.AddText("iraq sanctions weapons", 2.0, 1);
  ForgettingParams p;
  ForgettingModel model(&corpus, p);
  model.AdvanceTo(2.0);
  model.AddDocuments({kReleased, kReleased + 2});
  SimilarityContext ctx(model);
  EXPECT_EQ(ctx.slot_table_size(), 3u);  // [kReleased, kReleased + 2]
  EXPECT_TRUE(ctx.Contains(kReleased));
  EXPECT_FALSE(ctx.Contains(kReleased + 1));
  EXPECT_TRUE(ctx.Contains(kReleased + 2));
  EXPECT_FALSE(ctx.Contains(kReleased - 1));
  EXPECT_FALSE(ctx.Contains(0));
  EXPECT_FALSE(ctx.Contains(kReleased + 3));
  EXPECT_EQ(ctx.DocAt(ctx.SlotOf(kReleased + 2)), kReleased + 2);
  EXPECT_GT(ctx.Sim(kReleased, kReleased + 2), 0.0);
  EXPECT_LT(ctx.bytes(), size_t{1} << 16);
}

TEST_F(NoveltySimilarityTest, EmptyDocumentHasZeroPsi) {
  Corpus corpus;
  corpus.AddText("the of and", 0.0);  // analyzes to nothing
  corpus.AddText("real content here", 0.0);
  ForgettingParams p;
  ForgettingModel model(&corpus, p);
  model.AddDocuments({0, 1});
  SimilarityContext ctx(model);
  EXPECT_DOUBLE_EQ(ctx.SelfSim(0), 0.0);
  EXPECT_DOUBLE_EQ(ctx.Sim(0, 1), 0.0);
}

}  // namespace
}  // namespace nidc
