#include "nidc/forgetting/term_statistics.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

namespace nidc {
namespace {

// A document that owns the bytes it is stored in, viewed as a Document.
class MakeDoc {
 public:
  MakeDoc(DocId id, std::vector<TermCounts::Entry> entries) : id_(id) {
    AppendDocument(&bytes_, 0.0, kNoTopic, "",
                   TermCounts::FromSortedEntries(std::move(entries)));
  }
  operator Document() const { return ViewDocument(id_, bytes_.data()); }

 private:
  DocId id_;
  std::string bytes_;
};

TEST(TermStatisticsTest, SingleDocumentContribution) {
  TermStatistics stats;
  // f = {t0: 2, t1: 1}, len = 3, weight 1 → S_0 = 2/3, S_1 = 1/3.
  stats.AddDocument(MakeDoc(0, {{0, 2}, {1, 1}}), 1.0);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.SumWeightedFreq(1), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.SumWeightedFreq(99), 0.0);
}

TEST(TermStatisticsTest, WeightScalesContribution) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}}), 0.5);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 0.5, 1e-12);
}

TEST(TermStatisticsTest, ContributionsAccumulate) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}, {1, 1}}), 1.0);  // 0.5 each
  stats.AddDocument(MakeDoc(1, {{0, 3}}), 1.0);            // 1.0 to t0
  EXPECT_NEAR(stats.SumWeightedFreq(0), 1.5, 1e-12);
  EXPECT_NEAR(stats.SumWeightedFreq(1), 0.5, 1e-12);
}

TEST(TermStatisticsTest, RemoveUndoesAdd) {
  TermStatistics stats;
  const MakeDoc a(0, {{0, 2}, {1, 1}});
  const MakeDoc b(1, {{1, 4}, {2, 4}});
  stats.AddDocument(a, 1.0);
  stats.AddDocument(b, 0.7);
  stats.RemoveDocument(b, 0.7);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.SumWeightedFreq(1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.SumWeightedFreq(2), 0.0, 1e-12);
}

TEST(TermStatisticsTest, DecayScalesAllTerms) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}, {1, 3}}), 1.0);
  const double s0 = stats.SumWeightedFreq(0);
  const double s1 = stats.SumWeightedFreq(1);
  stats.Decay(0.8);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 0.8 * s0, 1e-12);
  EXPECT_NEAR(stats.SumWeightedFreq(1), 0.8 * s1, 1e-12);
}

TEST(TermStatisticsTest, AddAfterDecayIsUnscaled) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}}), 1.0);
  stats.Decay(0.5);
  stats.AddDocument(MakeDoc(1, {{0, 1}}), 1.0);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 1.5, 1e-12);
}

TEST(TermStatisticsTest, RemoveAfterDecayUsesCurrentWeight) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}}), 1.0);
  stats.Decay(0.5);
  // The document's current weight decayed to 0.5 too.
  stats.RemoveDocument(MakeDoc(0, {{0, 1}}), 0.5);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 0.0, 1e-12);
}

TEST(TermStatisticsTest, ManyDecaysTriggerRenormalization) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}}), 1.0);
  // 0.5^500 ≈ 3e-151 crosses the renormalization threshold.
  double expected = 1.0;
  for (int i = 0; i < 500; ++i) {
    stats.Decay(0.5);
    expected *= 0.5;
  }
  // The stored value survives (possibly as a subnormal-free rescaled pair).
  const double got = stats.SumWeightedFreq(0);
  if (expected > 0.0) {
    EXPECT_NEAR(got / expected, 1.0, 1e-9);
  }
  // And adding new mass afterwards still works at full precision.
  stats.AddDocument(MakeDoc(1, {{0, 1}}), 1.0);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 1.0 + expected, 1e-9);
}

TEST(TermStatisticsTest, PrTermDividesByTdw) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}, {1, 1}}), 1.0);
  EXPECT_NEAR(stats.PrTerm(0, 2.0), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(stats.PrTerm(0, 0.0), 0.0);
}

TEST(TermStatisticsTest, PrTermsSumToOne) {
  // Σ_k Pr(t_k) = Σ_k Σ_i Pr(t_k|d_i) Pr(d_i) = Σ_i Pr(d_i) = 1.
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 2}, {1, 3}}), 1.0);
  stats.AddDocument(MakeDoc(1, {{1, 1}, {2, 1}}), 0.6);
  const double tdw = 1.6;
  double total = 0.0;
  for (TermId t = 0; t < 3; ++t) total += stats.PrTerm(t, tdw);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(TermStatisticsTest, EmptyDocumentIgnored) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {}), 1.0);
  EXPECT_EQ(stats.num_terms(), 0u);
}

TEST(TermStatisticsTest, ClearDropsState) {
  TermStatistics stats;
  stats.AddDocument(MakeDoc(0, {{0, 1}}), 1.0);
  stats.Decay(0.5);
  stats.Clear();
  EXPECT_EQ(stats.num_terms(), 0u);
  stats.AddDocument(MakeDoc(1, {{0, 1}}), 1.0);
  EXPECT_NEAR(stats.SumWeightedFreq(0), 1.0, 1e-12);
}

}  // namespace
}  // namespace nidc
