#include "nidc/forgetting/term_statistics.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

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

TEST(TermStatisticsTest, BytesFollowTheLargestTermId) {
  TermStatistics stats;
  EXPECT_EQ(stats.bytes(), 0u);
  stats.AddDocument(MakeDoc(0, {{99, 1}}), 1.0);
  // One double and one presence byte per id up to the largest.
  EXPECT_EQ(stats.bytes(), 100u * 9u);
  // Growth takes half again, not double.
  stats.AddDocument(MakeDoc(1, {{100, 1}}), 1.0);
  EXPECT_EQ(stats.bytes(), 150u * 9u);
}

// The representation the arrays replaced: S̃_k in an ordered map that
// erases a term when a removal takes its sum to ≤ 0.
struct MapTwin {
  void Add(const Document& doc, double weight) {
    const double len = doc.Length();
    if (len <= 0.0) return;
    const double unit = weight / len / scale;
    for (const auto& e : doc.terms) sums[e.id] += unit * e.count;
  }
  void Remove(const Document& doc, double weight) {
    const double len = doc.Length();
    if (len <= 0.0) return;
    const double unit = weight / len / scale;
    for (const auto& e : doc.terms) {
      auto it = sums.find(e.id);
      if (it == sums.end()) continue;
      it->second -= unit * e.count;
      if (it->second <= 0.0) sums.erase(it);
    }
  }
  void Decay(double factor) {
    scale *= factor;
    if (scale < 1e-120) {
      for (auto& [term, sum] : sums) sum *= scale;
      scale = 1.0;
    }
  }
  double SumWeightedFreq(TermId term) const {
    auto it = sums.find(term);
    if (it == sums.end()) return 0.0;
    const double value = scale * it->second;
    return value > 0.0 ? value : 0.0;
  }

  std::map<TermId, double> sums;
  double scale = 1.0;
};

void ExpectSameAsTwin(const TermStatistics& stats, const MapTwin& twin,
                      TermId vocabulary, int op) {
  const std::vector<std::pair<TermId, double>> exact = stats.ExactSums();
  ASSERT_EQ(exact.size(), twin.sums.size()) << "op " << op;
  auto it = twin.sums.begin();
  for (const auto& [term, sum] : exact) {
    ASSERT_EQ(term, it->first) << "op " << op;
    ASSERT_EQ(std::bit_cast<uint64_t>(sum), std::bit_cast<uint64_t>(it->second))
        << "op " << op << " term " << term;
    ++it;
  }
  ASSERT_EQ(stats.num_terms(), twin.sums.size()) << "op " << op;
  ASSERT_EQ(std::bit_cast<uint64_t>(stats.scale()),
            std::bit_cast<uint64_t>(twin.scale))
      << "op " << op;
  for (TermId term = 0; term <= vocabulary; ++term) {
    ASSERT_EQ(std::bit_cast<uint64_t>(stats.SumWeightedFreq(term)),
              std::bit_cast<uint64_t>(twin.SumWeightedFreq(term)))
        << "op " << op << " term " << term;
  }
}

TEST(TermStatisticsTest, MatchesAMapTwinOverARandomStream) {
  constexpr TermId kVocabulary = 300;
  Rng rng(45);
  std::vector<MakeDoc> docs;
  for (DocId id = 0; id < 40; ++id) {
    // Ids drawn from a range that widens with the document id, so the
    // arrays grow while the stream runs.
    const TermId span = 20 + id * (kVocabulary - 20) / 40;
    std::map<TermId, uint32_t> bag;
    const uint64_t entries = rng.NextBounded(8);
    for (uint64_t e = 0; e < entries; ++e) {
      bag[static_cast<TermId>(rng.NextBounded(span))] +=
          1 + static_cast<uint32_t>(rng.NextBounded(3));
    }
    std::vector<TermCounts::Entry> sorted;
    for (const auto& [term, count] : bag) sorted.push_back({term, count});
    docs.emplace_back(id, std::move(sorted));
  }
  TermStatistics stats;
  MapTwin twin;
  std::vector<std::pair<DocId, double>> added;
  size_t renormalized = 0;
  for (int op = 0; op < 4000; ++op) {
    const uint64_t kind = rng.NextBounded(100);
    if (kind < 45) {
      const auto id = static_cast<DocId>(rng.NextBounded(docs.size()));
      const double weight = 0.05 + rng.NextDouble();
      stats.AddDocument(docs[id], weight);
      twin.Add(docs[id], weight);
      added.emplace_back(id, weight);
    } else if (kind < 80 && !added.empty()) {
      // Removing what was added leaves float residue of either sign; a
      // perturbed weight, or a document never added, stresses the clamp.
      const size_t at = rng.NextBounded(added.size());
      auto [id, weight] = added[at];
      added.erase(added.begin() + static_cast<std::ptrdiff_t>(at));
      if (rng.NextBounded(4) == 0) weight *= 0.5 + rng.NextDouble();
      if (rng.NextBounded(8) == 0) {
        id = static_cast<DocId>(rng.NextBounded(docs.size()));
      }
      stats.RemoveDocument(docs[id], weight);
      twin.Remove(docs[id], weight);
    } else if (kind < 93) {
      // Large factors now and then cross the renormalization threshold.
      const double factor =
          rng.NextBounded(3) == 0 ? 1e-45 : 0.5 + 0.5 * rng.NextDouble();
      const double before = twin.scale;
      stats.Decay(factor);
      twin.Decay(factor);
      renormalized += twin.scale > before;
    } else if (kind < 96) {
      stats.Clear();
      twin = MapTwin{};
      added.clear();
    } else {
      // Restore a twin state: a random subset of its sums, some replaced
      // by zero or negative values a removal would have erased.
      std::vector<std::pair<TermId, double>> sums;
      for (const auto& [term, sum] : twin.sums) {
        if (rng.NextBounded(4) == 0) continue;
        const uint64_t pick = rng.NextBounded(10);
        sums.emplace_back(term, pick == 0 ? 0.0 : pick == 1 ? -sum : sum);
      }
      const double scale = 0.25 + rng.NextDouble();
      ASSERT_TRUE(stats.RestoreExact(scale, sums).ok());
      twin.sums = std::map<TermId, double>(sums.begin(), sums.end());
      twin.scale = scale;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsTwin(stats, twin, kVocabulary, op));
  }
  EXPECT_GT(renormalized, 10u);
}

TEST(TermStatisticsTest, RestoreRefusesDuplicatesAndNonFiniteSums) {
  TermStatistics stats;
  EXPECT_FALSE(stats.RestoreExact(1.0, {{3, 1.0}, {1, 2.0}, {3, 0.5}}).ok());
  EXPECT_FALSE(stats.RestoreExact(1.0, {{2, std::nan("")}}).ok());
  EXPECT_FALSE(stats.RestoreExact(0.0, {{2, 1.0}}).ok());
  // Unsorted input restores; the exact sums come back sorted.
  ASSERT_TRUE(stats.RestoreExact(0.5, {{7, 1.0}, {2, 3.0}}).ok());
  EXPECT_EQ(stats.ExactSums(),
            (std::vector<std::pair<TermId, double>>{{2, 3.0}, {7, 1.0}}));
  EXPECT_EQ(stats.num_terms(), 2u);
  EXPECT_DOUBLE_EQ(stats.SumWeightedFreq(2), 1.5);
}

}  // namespace
}  // namespace nidc
