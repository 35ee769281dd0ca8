#include "nidc/core/rep_index.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/cluster_set.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

// ---------------------------------------------------------------------------
// FlatRepIndex: the CSR posting index behind slotted move-only sweeps.
// ---------------------------------------------------------------------------

// A 60-document corpus over a 30-word vocabulary, shared by the tests.
class FlatRepIndexTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* pool[] = {"alpha", "bravo",  "charlie", "delta", "echo",
                          "fox",   "golf",   "hotel",   "india", "juliet",
                          "kilo",  "lima",   "mike",    "nov",   "oscar",
                          "papa",  "quebec", "romeo",   "sierra", "tango",
                          "umbra", "victor", "whiskey", "xray",  "yankee",
                          "zulu",  "anchor", "beacon",  "cobalt", "dynamo"};
    Rng words(321);
    const size_t n_docs = 60;
    for (size_t i = 0; i < n_docs; ++i) {
      std::string text;
      for (int j = 0; j < 8; ++j) {
        if (j > 0) text += ' ';
        text += pool[words.NextBounded(30)];
      }
      corpus_.AddText(text, 0.5 + 0.01 * static_cast<double>(i),
                      static_cast<TopicId>(i % 5));
    }
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, params);
    model_->AdvanceTo(2.0);
    std::vector<DocId> ids(n_docs);
    for (DocId d = 0; d < static_cast<DocId>(n_docs); ++d) ids[d] = d;
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
    docs_ = ids;
  }

  // Builds a merge-scoring ClusterSet with the same memberships as the
  // round-robin assignment used by the tests, assigned in the same order —
  // its representatives carry bit-identical coefficients to the ones a
  // slotted set's CSR rebuild accumulates.
  ClusterSet MakeMergeTwin(size_t k) const {
    ClusterSet twin(k, ClusterScoring::kMerge);
    for (size_t i = 0; i < docs_.size(); ++i) {
      twin.Assign(docs_[i], static_cast<int>(i % k), *ctx_);
    }
    return twin;
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
  std::vector<DocId> docs_;
};

TEST_F(FlatRepIndexTest, BuildFromClustersMatchesRepresentativeDots) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  for (size_t i = 0; i < docs_.size(); ++i) {
    set.Assign(docs_[i], static_cast<int>(i % k), *ctx_);
  }
  set.RefreshAll(*ctx_);
  const FlatRepIndex& index = set.flat_index();
  ASSERT_TRUE(index.built());
  EXPECT_EQ(index.stats().builds, 1u);
  std::vector<double> scores;
  for (DocId id : docs_) {
    index.ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
    ASSERT_EQ(scores.size(), k);
    const SimilarityContext::Row psi = ctx_->Psi(id);
    for (size_t p = 0; p < k; ++p) {
      // Bit-identical, not merely close: the CSR build accumulates weights
      // in member order and the scan in ascending term order — the exact
      // float operations of representative().Dot(psi).
      EXPECT_EQ(scores[p], set.cluster(p).representative().Dot(psi))
          << "doc " << id << " cluster " << p;
    }
  }
}

TEST_F(FlatRepIndexTest, ScoreAllDetachedMatchesPhysicalRemoval) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  for (size_t i = 0; i < docs_.size(); ++i) {
    set.Assign(docs_[i], static_cast<int>(i % k), *ctx_);
  }
  set.RefreshAll(*ctx_);
  std::vector<double> scores;
  for (DocId id : docs_) {
    const size_t home = static_cast<size_t>(set.ClusterOf(id));
    double attached = 0.0;
    set.flat_index().ScoreAllDetached(*ctx_, ctx_->SlotOf(id), home, &scores,
                                      &attached);
    // A fresh merge twin per document: physically detaching and re-attaching
    // in a shared twin would perturb its coefficients by a rounding step and
    // break the bit-for-bit comparison for later documents.
    ClusterSet twin = MakeMergeTwin(k);
    const SimilarityContext::Row psi = ctx_->Psi(id);
    EXPECT_EQ(attached, twin.cluster(home).representative().Dot(psi))
        << "doc " << id;
    twin.Assign(id, kUnassigned, *ctx_);
    for (size_t p = 0; p < k; ++p) {
      const Cluster& c = twin.cluster(p);
      EXPECT_EQ(scores[p], c.representative().Dot(psi))
          << "doc " << id << " cluster " << p;
      if (c.empty()) continue;
      // The slotted sweep's gains from a scanned cross term equal the merge
      // sweep's gains from its own dot product, bit for bit.
      EXPECT_EQ(c.GainGivenT(scores[p]), c.GainIfAdded(id, *ctx_))
          << "doc " << id << " cluster " << p;
      EXPECT_EQ(c.GainInGGivenT(scores[p]), c.GainInGIfAdded(id, *ctx_))
          << "doc " << id << " cluster " << p;
    }
  }
}

TEST_F(FlatRepIndexTest, MoveMaintenanceTracksRepresentatives) {
  const size_t k = 5;
  ClusterSet set(k, ClusterScoring::kSlotted);
  for (size_t i = 0; i < docs_.size(); ++i) {
    set.Assign(docs_[i], static_cast<int>(i % k), *ctx_);
  }
  set.RefreshAll(*ctx_);
  Rng rng(1234);
  std::vector<double> scores;
  for (int move = 0; move < 200; ++move) {
    const DocId id = docs_[rng.NextBounded(docs_.size())];
    const int target = rng.NextBounded(8) == 0
                           ? kUnassigned
                           : static_cast<int>(rng.NextBounded(k));
    set.Assign(id, target, *ctx_);
    if (move % 25 != 0) continue;
    for (DocId probe : docs_) {
      set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(probe), &scores);
      const SimilarityContext::Row psi = ctx_->Psi(probe);
      for (size_t p = 0; p < k; ++p) {
        // 1e-12, not bit-exact: zero-snapped tombstones intentionally clear
        // float residuals the merge representatives keep.
        EXPECT_NEAR(scores[p], set.cluster(p).representative().Dot(psi),
                    1e-12)
            << "probe " << probe << " cluster " << p;
      }
    }
  }
  EXPECT_GT(set.flat_index().stats().moves_applied, 0u);
  // A rebuild compacts the runs, clears tombstones and restores
  // bit-identity.
  set.RefreshAll(*ctx_);
  EXPECT_EQ(set.flat_index().stats().dead_entries, 0u);
  for (DocId probe : docs_) {
    set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(probe), &scores);
    const SimilarityContext::Row psi = ctx_->Psi(probe);
    for (size_t p = 0; p < k; ++p) {
      EXPECT_EQ(scores[p], set.cluster(p).representative().Dot(psi));
    }
  }
}

TEST_F(FlatRepIndexTest, ApplyIsANoOpBeforeTheFirstBuild) {
  ClusterSet set(3, ClusterScoring::kSlotted);
  EXPECT_FALSE(set.flat_index().built());
  for (size_t i = 0; i < docs_.size(); ++i) {
    set.Assign(docs_[i], static_cast<int>(i % 3), *ctx_);
  }
  // Seeding-style assigns before the first RefreshAll maintain nothing.
  EXPECT_EQ(set.flat_index().stats().moves_applied, 0u);
  EXPECT_EQ(set.flat_index().stats().live_entries, 0u);
  set.RefreshAll(*ctx_);
  EXPECT_TRUE(set.flat_index().built());
  EXPECT_GT(set.flat_index().stats().live_entries, 0u);
}

// Tiny corpus: documents 0 and 1 have disjoint vocabularies, document 2
// shares document 1's last term. Every structural transition of the flat
// index (tombstone, appended entry, relocated run, revive, rebuild) is
// observable term by term.
class FlatRepIndexLifecycleTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("alpha bravo", 0.25, 0);
    corpus_.AddText("charlie delta", 0.5, 1);
    corpus_.AddText("delta", 0.75, 2);
    ForgettingParams params;
    params.half_life_days = 7.0;
    params.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, params);
    model_->AdvanceTo(1.0);
    model_->AddDocuments({0, 1, 2});
    ctx_ = std::make_unique<SimilarityContext>(*model_);
  }

  // Every score of every document, under every available kernel, equals
  // the merge twin's dot product bit-for-bit: attached through ScoreAll,
  // and detached from the document's home through ScoreAllDetached against
  // a copy of the twin that physically removes it.
  void ExpectScoresMatchTwin(const ClusterSet& set,
                             const ClusterSet& twin) const {
    const kernels::Kind saved = kernels::Active().kind;
    for (kernels::Kind kind :
         {kernels::Kind::kScalar, kernels::Kind::kAvx512}) {
      if (!kernels::Available(kind)) continue;
      kernels::Select(kind);
      for (DocId id = 0; id < 3; ++id) {
        SCOPED_TRACE(std::string(kernels::KindName(kind)) + " doc " +
                     std::to_string(id));
        const SimilarityContext::Row psi = ctx_->Psi(id);
        std::vector<double> scores;
        set.flat_index().ScoreAll(*ctx_, ctx_->SlotOf(id), &scores);
        for (size_t p = 0; p < twin.num_clusters(); ++p) {
          EXPECT_EQ(scores[p], twin.cluster(p).representative().Dot(psi))
              << "cluster " << p;
        }
        const int home = set.ClusterOf(id);
        if (home == kUnassigned) continue;
        double attached = 0.0;
        set.flat_index().ScoreAllDetached(*ctx_, ctx_->SlotOf(id),
                                          static_cast<size_t>(home), &scores,
                                          &attached);
        EXPECT_EQ(attached, twin.cluster(home).representative().Dot(psi));
        ClusterSet detached = twin;
        detached.Assign(id, kUnassigned, *ctx_);
        for (size_t p = 0; p < twin.num_clusters(); ++p) {
          EXPECT_EQ(scores[p],
                    detached.cluster(p).representative().Dot(psi))
              << "detached, cluster " << p;
        }
      }
    }
    kernels::Select(saved);
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
};

TEST_F(FlatRepIndexLifecycleTest, MovesTombstoneOldPairsAndAppendNewOnes) {
  ClusterSet set(2, ClusterScoring::kSlotted);
  set.Assign(0, 0, *ctx_);
  set.Assign(1, 1, *ctx_);
  set.RefreshAll(*ctx_);
  const FlatRepIndex& index = set.flat_index();
  EXPECT_EQ(index.stats().live_entries, 4u);  // 2 terms per document

  // Doc 0 moves to cluster 1: its two (term, cluster 0) entries become
  // tombstones, and the (term, cluster 1) pairs, seen for the first time,
  // are appended to their terms' runs.
  set.Assign(0, 1, *ctx_);
  EXPECT_EQ(index.stats().tombstones_created, 2u);
  EXPECT_EQ(index.stats().pairs_appended, 2u);
  EXPECT_EQ(index.stats().dead_entries, 2u);
  EXPECT_EQ(index.stats().live_entries, 4u);
  const SimilarityContext::Row psi0 = ctx_->Psi(0);
  for (size_t i = 0; i < psi0.size; ++i) {
    const TermId term = psi0.id(i);
    auto postings = index.PostingsOf(*ctx_, term);
    ASSERT_EQ(postings.size(), 1u) << "term " << term;  // live entries only
    EXPECT_EQ(postings[0].first, 1u);
    EXPECT_EQ(postings[0].second, psi0.value(i));
  }
  std::vector<double> scores;
  index.ScoreAll(*ctx_, ctx_->SlotOf(0), &scores);
  EXPECT_EQ(scores[0], 0.0);  // exact zero: tombstones snap, no residual
  EXPECT_EQ(scores[1], set.cluster(1).representative().Dot(psi0));

  // Moving back revives the old tombstones and tombstones the new pairs.
  set.Assign(0, 0, *ctx_);
  EXPECT_EQ(index.stats().tombstones_revived, 2u);
  EXPECT_EQ(index.stats().tombstones_created, 4u);
  for (size_t i = 0; i < psi0.size; ++i) {
    const TermId term = psi0.id(i);
    auto postings = index.PostingsOf(*ctx_, term);
    ASSERT_EQ(postings.size(), 1u) << "term " << term;
    EXPECT_EQ(postings[0].first, 0u);
    EXPECT_EQ(postings[0].second, psi0.value(i));
  }

  // A rebuild drops the tombstones and the stale runs.
  set.RefreshAll(*ctx_);
  EXPECT_EQ(index.stats().builds, 2u);
  EXPECT_EQ(index.stats().dead_entries, 0u);
  EXPECT_EQ(index.stats().live_entries, 4u);
  EXPECT_EQ(index.arena_size(), 4u);
}

TEST_F(FlatRepIndexLifecycleTest, AppendedPairsScoreLikeTheMergeTwin) {
  // The slotted set and its merge twin replay the same assignments.
  ClusterSet set(4, ClusterScoring::kSlotted);
  ClusterSet twin(4, ClusterScoring::kMerge);
  const auto assign = [&](DocId id, int p) {
    set.Assign(id, p, *ctx_);
    twin.Assign(id, p, *ctx_);
  };
  assign(0, 0);
  assign(1, 1);
  assign(2, 2);
  set.RefreshAll(*ctx_);
  twin.RefreshAll(*ctx_);
  const FlatRepIndex& index = set.flat_index();
  // Compact: alpha, bravo and charlie hold one entry each, delta two.
  EXPECT_EQ(index.arena_size(), 5u);
  EXPECT_EQ(index.stats().live_entries, 5u);
  ExpectScoresMatchTwin(set, twin);

  // Doc 1 joins cluster 0. Neither of its terms' runs ends the arena once
  // charlie's has moved, so each run is copied to the tail with its new
  // entry: charlie 1 + 1, delta 2 + 1.
  assign(1, 0);
  EXPECT_EQ(index.stats().pairs_appended, 2u);
  EXPECT_EQ(index.arena_size(), 10u);
  ExpectScoresMatchTwin(set, twin);

  // Doc 2 joins cluster 3: delta's run now ends the arena, so (delta, 3)
  // is appended in place — one more slot, no second copy.
  assign(2, 3);
  EXPECT_EQ(index.stats().pairs_appended, 3u);
  EXPECT_EQ(index.arena_size(), 11u);
  const TermId delta = ctx_->Psi(2).id(0);
  std::vector<size_t> delta_clusters;
  for (const auto& posting : index.PostingsOf(*ctx_, delta)) {
    delta_clusters.push_back(posting.first);
  }
  // Live entries in run order: the copied run's (delta, 1) and (delta, 2)
  // are tombstones now, then come the appends in arrival order.
  EXPECT_EQ(delta_clusters, (std::vector<size_t>{0, 3}));
  ExpectScoresMatchTwin(set, twin);

  // RefreshAll returns to the compact layout: live entries only, nothing
  // stale, and the scores still match.
  set.RefreshAll(*ctx_);
  twin.RefreshAll(*ctx_);
  EXPECT_EQ(index.stats().dead_entries, 0u);
  EXPECT_EQ(index.arena_size(), index.stats().live_entries);
  EXPECT_EQ(index.arena_size(), 5u);
  ExpectScoresMatchTwin(set, twin);
}

TEST(SimilarityContextDeathTest, UnknownDocIdFailsLoudlyWithId) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Corpus corpus;
  corpus.AddText("alpha bravo charlie", 0.5, 1);
  ForgettingParams params;
  ForgettingModel model(&corpus, params);
  model.AdvanceTo(1.0);
  model.AddDocuments({0});
  SimilarityContext ctx(model);
  EXPECT_DEATH(ctx.Psi(4242), "4242");
  EXPECT_DEATH(ctx.SelfSim(4242), "4242");
}

}  // namespace
}  // namespace nidc
