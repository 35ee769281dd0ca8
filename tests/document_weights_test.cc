#include "nidc/forgetting/document_weights.h"

#include <algorithm>
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

constexpr double kLambda = 0.9;

TEST(DocumentWeightsTest, FreshDocumentHasWeightOne) {
  DocumentWeights w(kLambda);
  w.AdvanceTo(5.0);
  w.Add(0, 5.0);
  EXPECT_DOUBLE_EQ(w.Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 1.0);
}

TEST(DocumentWeightsTest, BackdatedDocumentIsPreDecayed) {
  DocumentWeights w(kLambda);
  w.AdvanceTo(10.0);
  w.Add(0, 7.0);  // acquired 3 days ago
  EXPECT_NEAR(w.Weight(0), std::pow(kLambda, 3.0), 1e-12);
}

TEST(DocumentWeightsTest, AdvanceDecaysExponentially) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.AdvanceTo(1.0);
  EXPECT_NEAR(w.Weight(0), kLambda, 1e-12);
  w.AdvanceTo(3.0);
  EXPECT_NEAR(w.Weight(0), std::pow(kLambda, 3.0), 1e-12);
}

TEST(DocumentWeightsTest, IncrementalDecayMatchesDirectFormula) {
  // Eq. 27: many small advances == one big advance.
  DocumentWeights incremental(kLambda);
  incremental.Add(0, 0.0);
  for (int day = 1; day <= 20; ++day) {
    incremental.AdvanceTo(static_cast<double>(day));
  }
  EXPECT_NEAR(incremental.Weight(0), std::pow(kLambda, 20.0), 1e-12);
}

TEST(DocumentWeightsTest, TdwFollowsEq28) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.Add(1, 0.0);
  const double tdw0 = w.TotalWeight();
  EXPECT_DOUBLE_EQ(tdw0, 2.0);
  w.AdvanceTo(2.0);
  w.Add(2, 2.0);
  w.Add(3, 2.0);
  w.Add(4, 2.0);
  // Eq. 28: tdw' = λ^Δτ · tdw + m'.
  EXPECT_NEAR(w.TotalWeight(), std::pow(kLambda, 2.0) * tdw0 + 3.0, 1e-12);
}

TEST(DocumentWeightsTest, TdwMatchesSumOfWeights) {
  DocumentWeights w(kLambda);
  for (int i = 0; i < 10; ++i) {
    w.AdvanceTo(static_cast<double>(i));
    w.Add(static_cast<DocId>(i), static_cast<double>(i));
  }
  double sum = 0.0;
  for (DocId id : w.active_docs()) sum += w.Weight(id);
  EXPECT_NEAR(w.TotalWeight(), sum, 1e-9);
}

TEST(DocumentWeightsTest, RemoveSubtractsWeight) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.Add(1, 0.0);
  w.AdvanceTo(1.0);
  const double w0 = w.Weight(0);
  w.Remove(0);
  EXPECT_FALSE(w.Contains(0));
  EXPECT_DOUBLE_EQ(w.Weight(0), 0.0);
  EXPECT_NEAR(w.TotalWeight(), w.Weight(1), 1e-12);
  EXPECT_GT(w0, 0.0);
  EXPECT_EQ(w.active_docs(), (std::vector<DocId>{1}));
}

TEST(DocumentWeightsTest, RemoveBelowExpiresOldDocs) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.AdvanceTo(10.0);
  w.Add(1, 10.0);
  // After 10 days at λ=0.9, weight ≈ 0.35; expire below 0.5.
  const auto removed = w.RemoveBelow(0.5);
  EXPECT_EQ(removed, (std::vector<DocId>{0}));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(w.Contains(1));
  EXPECT_NEAR(w.TotalWeight(), 1.0, 1e-12);
}

TEST(DocumentWeightsTest, RemoveBelowKeepsOrder) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.AdvanceTo(5.0);
  w.Add(1, 5.0);
  w.AdvanceTo(20.0);
  w.Add(2, 20.0);
  const auto removed = w.RemoveBelow(0.3);  // drops 0 (w≈0.12) and 1 (w≈0.2)
  EXPECT_EQ(removed, (std::vector<DocId>{0, 1}));
  EXPECT_EQ(w.active_docs(), (std::vector<DocId>{2}));
}

TEST(DocumentWeightsTest, ResetClearsEverything) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.AdvanceTo(3.0);
  w.Reset(7.0);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 0.0);
  EXPECT_DOUBLE_EQ(w.now(), 7.0);
  w.Add(0, 7.0);
  EXPECT_DOUBLE_EQ(w.Weight(0), 1.0);
}

TEST(DocumentWeightsTest, AdvanceToSameTimeIsNoop) {
  DocumentWeights w(kLambda);
  w.Add(0, 0.0);
  w.AdvanceTo(0.0);
  EXPECT_DOUBLE_EQ(w.Weight(0), 1.0);
}

TEST(DocumentWeightsTest, RemoveInTheMiddleSwapsTheLastIn) {
  DocumentWeights w(kLambda);
  for (DocId id : {10, 11, 12, 13}) w.Add(id, 0.0);
  w.Remove(11);
  EXPECT_EQ(w.active_docs(), (std::vector<DocId>{10, 13, 12}));
  EXPECT_FALSE(w.Contains(11));
  EXPECT_DOUBLE_EQ(w.Weight(11), 0.0);
  EXPECT_TRUE(w.Contains(13));
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 3.0);
}

// The representation the position array replaced: positions in an
// ordered map, updated on every write.
struct MapTwin {
  explicit MapTwin(double lambda) : lambda(lambda) {}

  void AdvanceTo(DayTime tau) {
    if (tau == now) return;
    const double decay = std::pow(lambda, tau - now);
    for (double& weight : dw) weight *= decay;
    tdw *= decay;
    now = tau;
  }
  void Add(DocId id, DayTime acquisition_time) {
    const double weight = std::pow(lambda, now - acquisition_time);
    pos.emplace(id, active.size());
    active.push_back(id);
    dw.push_back(weight);
    tdw += weight;
  }
  void Remove(DocId id) {
    const size_t at = pos.at(id);
    tdw -= dw[at];
    pos.erase(id);
    if (at != active.size() - 1) {
      active[at] = active.back();
      dw[at] = dw.back();
      pos[active[at]] = at;
    }
    active.pop_back();
    dw.pop_back();
  }
  std::vector<DocId> RemoveBelow(double epsilon) {
    std::vector<DocId> removed;
    size_t kept = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      if (dw[i] < epsilon) {
        tdw -= dw[i];
        pos.erase(active[i]);
        removed.push_back(active[i]);
      } else {
        active[kept] = active[i];
        dw[kept] = dw[i];
        pos[active[kept]] = kept;
        ++kept;
      }
    }
    active.resize(kept);
    dw.resize(kept);
    return removed;
  }
  double Weight(DocId id) const {
    auto it = pos.find(id);
    return it == pos.end() ? 0.0 : dw[it->second];
  }

  double lambda;
  DayTime now = 0.0;
  double tdw = 0.0;
  std::vector<DocId> active;
  std::vector<double> dw;
  std::map<DocId, size_t> pos;
};

void ExpectSameAsTwin(const DocumentWeights& w, const MapTwin& twin,
                      DocId max_id, int op) {
  ASSERT_EQ(w.active_docs(), twin.active) << "op " << op;
  const std::vector<std::pair<DocId, double>> exact = w.ExactWeights();
  ASSERT_EQ(exact.size(), twin.dw.size()) << "op " << op;
  for (size_t i = 0; i < exact.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(exact[i].second),
              std::bit_cast<uint64_t>(twin.dw[i]))
        << "op " << op;
  }
  ASSERT_EQ(std::bit_cast<uint64_t>(w.TotalWeight()),
            std::bit_cast<uint64_t>(twin.tdw))
      << "op " << op;
  for (DocId id = 0; id <= max_id; ++id) {
    ASSERT_EQ(w.Contains(id), twin.pos.contains(id)) << "op " << op;
    ASSERT_EQ(std::bit_cast<uint64_t>(w.Weight(id)),
              std::bit_cast<uint64_t>(twin.Weight(id)))
        << "op " << op << " doc " << id;
  }
}

TEST(DocumentWeightsTest, MatchesAMapTwinOverARandomStream) {
  // Ids arrive mostly ascending from a moving base, some below the
  // smallest active id; single removals hit the middle of the list.
  constexpr DocId kMaxId = 400;
  Rng rng(45);
  DocumentWeights w(kLambda);
  MapTwin twin(kLambda);
  DocId base = 100;
  size_t below_first = 0;
  for (int op = 0; op < 3000; ++op) {
    const uint64_t kind = rng.NextBounded(100);
    if (kind < 50) {
      const auto id = static_cast<DocId>(std::clamp<int64_t>(
          rng.NextInt(int64_t{base} - 60, int64_t{base} + 8), 0, kMaxId));
      if (twin.pos.contains(id)) continue;
      if (!twin.active.empty() &&
          id < *std::min_element(twin.active.begin(), twin.active.end())) {
        ++below_first;
      }
      const DayTime t = twin.now - static_cast<double>(rng.NextBounded(4));
      w.Add(id, t);
      twin.Add(id, t);
      base = std::min<DocId>(kMaxId - 8, base + (rng.NextBounded(3) == 0));
    } else if (kind < 62 && !twin.active.empty()) {
      const DocId id = twin.active[rng.NextBounded(twin.active.size())];
      w.Remove(id);
      twin.Remove(id);
    } else if (kind < 80) {
      const DayTime tau = twin.now + static_cast<double>(rng.NextBounded(3));
      w.AdvanceTo(tau);
      twin.AdvanceTo(tau);
    } else if (kind < 94) {
      const double epsilon = 0.05 + 0.5 * rng.NextDouble();
      ASSERT_EQ(w.RemoveBelow(epsilon), twin.RemoveBelow(epsilon));
    } else if (kind < 98) {
      // Restore into a fresh instance, then carry on from it.
      DocumentWeights restored(kLambda);
      ASSERT_TRUE(
          restored.RestoreExact(w.now(), w.TotalWeight(), w.ExactWeights())
              .ok());
      w = restored;
    } else {
      w.Reset(twin.now);
      twin = MapTwin(kLambda);
      twin.now = w.now();
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsTwin(w, twin, kMaxId, op));
  }
  EXPECT_GT(below_first, 20u);
}

TEST(DocumentWeightsTest, RestoreRefusesDuplicateIds) {
  DocumentWeights w(kLambda);
  const Status status = w.RestoreExact(0.0, 2.0, {{5, 1.0}, {3, 0.5},
                                                  {5, 0.5}});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("duplicate document 5"), std::string::npos);
}

}  // namespace
}  // namespace nidc
