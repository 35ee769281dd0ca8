#include "nidc/text/sparse_vector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/util/random.h"
#include "sparse_value.h"

namespace nidc {
namespace {

SparseVector Make(std::vector<SparseVector::Entry> entries) {
  return SparseVector::FromEntries(std::move(entries));
}

TEST(SparseVectorTest, FromEntriesSortsById) {
  SparseVector v = Make({{5, 1.0}, {2, 2.0}, {9, 3.0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.entries()[0].id, 2u);
  EXPECT_EQ(v.entries()[1].id, 5u);
  EXPECT_EQ(v.entries()[2].id, 9u);
}

TEST(SparseVectorTest, FromEntriesCoalescesDuplicates) {
  SparseVector v = Make({{3, 1.0}, {3, 2.5}, {1, 1.0}});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(ValueAt(v, 3), 3.5);
  EXPECT_DOUBLE_EQ(ValueAt(v, 1), 1.0);
}

TEST(SparseVectorTest, EmptyVector) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_DOUBLE_EQ(v.Norm(), 0.0);
  EXPECT_DOUBLE_EQ(v.Dot(v), 0.0);
}

TEST(SparseVectorTest, DotDisjointIsZero) {
  SparseVector a = Make({{1, 1.0}, {3, 2.0}});
  SparseVector b = Make({{2, 5.0}, {4, 7.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 0.0);
}

TEST(SparseVectorTest, DotOverlapping) {
  SparseVector a = Make({{1, 2.0}, {2, 3.0}, {5, 1.0}});
  SparseVector b = Make({{2, 4.0}, {5, 10.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 3.0 * 4.0 + 1.0 * 10.0);
}

TEST(SparseVectorTest, DotIsSymmetric) {
  SparseVector a = Make({{1, 2.0}, {7, -1.0}});
  SparseVector b = Make({{1, 0.5}, {3, 9.0}, {7, 2.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), b.Dot(a));
}

TEST(SparseVectorTest, SquaredNormEqualsSelfDot) {
  SparseVector a = Make({{1, 2.0}, {4, -3.0}, {9, 0.5}});
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), a.Dot(a));
  EXPECT_DOUBLE_EQ(a.Norm(), std::sqrt(a.SquaredNorm()));
}

TEST(SparseVectorTest, AddScaledMergesIds) {
  SparseVector a = Make({{1, 1.0}, {3, 1.0}});
  SparseVector b = Make({{2, 1.0}, {3, 2.0}});
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(ValueAt(a, 1), 1.0);
  EXPECT_DOUBLE_EQ(ValueAt(a, 2), 2.0);
  EXPECT_DOUBLE_EQ(ValueAt(a, 3), 5.0);
  ASSERT_EQ(a.size(), 3u);
  // Order invariant preserved.
  EXPECT_LT(a.entries()[0].id, a.entries()[1].id);
  EXPECT_LT(a.entries()[1].id, a.entries()[2].id);
}

TEST(SparseVectorTest, AddScaledIntoEmpty) {
  SparseVector a;
  SparseVector b = Make({{2, 3.0}});
  a.AddScaled(b, 1.5);
  EXPECT_DOUBLE_EQ(ValueAt(a, 2), 4.5);
}

TEST(SparseVectorTest, AddScaledZeroFactorIsNoop) {
  SparseVector a = Make({{1, 1.0}});
  SparseVector b = Make({{2, 5.0}});
  a.AddScaled(b, 0.0);
  EXPECT_EQ(a.size(), 1u);
}

TEST(SparseVectorTest, AddThenSubtractCancels) {
  SparseVector a = Make({{1, 1.0}, {5, 2.0}});
  SparseVector b = Make({{1, 4.0}, {9, 3.0}});
  SparseVector original = a;
  a.AddScaled(b, 1.0);
  a.AddScaled(b, -1.0);
  EXPECT_DOUBLE_EQ(ValueAt(a, 1), ValueAt(original, 1));
  EXPECT_DOUBLE_EQ(ValueAt(a, 5), ValueAt(original, 5));
  EXPECT_DOUBLE_EQ(ValueAt(a, 9), 0.0);
}

// ---- Property tests over random vectors ----

class SparseVectorPropertyTest : public testing::TestWithParam<uint64_t> {
 protected:
  SparseVector RandomVector(Rng* rng, size_t max_terms = 40,
                            TermId id_space = 100) {
    std::vector<SparseVector::Entry> entries;
    const size_t n = rng->NextBounded(max_terms);
    for (size_t i = 0; i < n; ++i) {
      entries.push_back({static_cast<TermId>(rng->NextBounded(id_space)),
                         rng->NextDouble() * 4.0 - 2.0});
    }
    return SparseVector::FromEntries(std::move(entries));
  }
};

TEST_P(SparseVectorPropertyTest, DotMatchesDenseComputation) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector a = RandomVector(&rng);
    SparseVector b = RandomVector(&rng);
    double expected = 0.0;
    for (TermId id = 0; id < 100; ++id) {
      expected += ValueAt(a, id) * ValueAt(b, id);
    }
    EXPECT_NEAR(a.Dot(b), expected, 1e-9);
  }
}

TEST_P(SparseVectorPropertyTest, AddScaledLinearity) {
  Rng rng(GetParam() ^ 0xabc);
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector a = RandomVector(&rng);
    SparseVector b = RandomVector(&rng);
    const double f = rng.NextDouble() * 3.0 - 1.5;
    SparseVector sum = a;
    sum.AddScaled(b, f);
    for (TermId id = 0; id < 100; ++id) {
      EXPECT_NEAR(ValueAt(sum, id), ValueAt(a, id) + f * ValueAt(b, id), 1e-9);
    }
  }
}

TEST_P(SparseVectorPropertyTest, CauchySchwarz) {
  Rng rng(GetParam() ^ 0xdef);
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector a = RandomVector(&rng);
    SparseVector b = RandomVector(&rng);
    EXPECT_LE(std::abs(a.Dot(b)), a.Norm() * b.Norm() + 1e-9);
  }
}

// ---- SparseRowView: the arena form of a vector must merge bit for bit ----

// A SparseVector re-laid as a SparseRowView: local ids index a shuffled
// local→global table, as in a SimilarityContext arena.
class RowViewOf {
 public:
  RowViewOf(const SparseVector& v, Rng* rng) {
    for (const auto& e : v.entries()) global_.push_back(e.id);
    for (size_t i = global_.size(); i > 1; --i) {
      std::swap(global_[i - 1], global_[rng->NextBounded(i)]);
    }
    for (const auto& e : v.entries()) {
      const auto it = std::find(global_.begin(), global_.end(), e.id);
      terms_.push_back(static_cast<uint32_t>(it - global_.begin()));
      values_.push_back(e.value);
    }
  }
  SparseRowView view() const {
    return {terms_.data(), global_.data(), values_.data(), terms_.size()};
  }

 private:
  std::vector<TermId> global_;
  std::vector<uint32_t> terms_;
  std::vector<double> values_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameBits(const SparseVector& actual, const SparseVector& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.entries()[i].id, expected.entries()[i].id) << i;
    EXPECT_EQ(Bits(actual.entries()[i].value),
              Bits(expected.entries()[i].value))
        << "id " << actual.entries()[i].id;
  }
}

// a + b·factor spelled out per id, independent of the merge under test.
SparseVector AddScaledReference(const SparseVector& a, const SparseVector& b,
                                double factor) {
  std::vector<SparseVector::Entry> out;
  size_t j = 0;
  for (const auto& e : a.entries()) {
    for (; j < b.size() && b.entries()[j].id < e.id; ++j) {
      out.push_back({b.entries()[j].id, b.entries()[j].value * factor});
    }
    if (j < b.size() && b.entries()[j].id == e.id) {
      out.push_back({e.id, e.value + b.entries()[j].value * factor});
      ++j;
    } else {
      out.push_back(e);
    }
  }
  for (; j < b.size(); ++j) {
    out.push_back({b.entries()[j].id, b.entries()[j].value * factor});
  }
  return SparseVector::FromEntries(std::move(out));
}

TEST_P(SparseVectorPropertyTest, RowViewDotIsBitIdentical) {
  Rng rng(GetParam() ^ 0x5eed);
  // Balanced sizes take the linear merge; 2 vs 200 entries over a wide id
  // space takes the small-into-large probe, from either side.
  const std::pair<size_t, size_t> shapes[] = {{40, 40}, {3, 400}, {400, 3}};
  for (const auto& [na, nb] : shapes) {
    for (int trial = 0; trial < 20; ++trial) {
      const SparseVector a = RandomVector(&rng, na, 1000);
      const SparseVector b = RandomVector(&rng, nb, 1000);
      const RowViewOf va(a, &rng);
      const RowViewOf vb(b, &rng);
      EXPECT_EQ(Bits(a.Dot(vb.view())), Bits(a.Dot(b)));
      EXPECT_EQ(Bits(b.Dot(va.view())), Bits(b.Dot(a)));
      EXPECT_EQ(Bits(va.view().Dot(vb.view())), Bits(a.Dot(b)));
      EXPECT_EQ(Bits(vb.view().Dot(va.view())), Bits(b.Dot(a)));
      EXPECT_EQ(Bits(va.view().SquaredNorm()), Bits(a.SquaredNorm()));
    }
  }
}

TEST_P(SparseVectorPropertyTest, RowViewAddScaledIsBitIdentical) {
  Rng rng(GetParam() ^ 0xadd);
  for (double factor : {1.0, -1.0, 0.5}) {
    for (int trial = 0; trial < 20; ++trial) {
      const SparseVector a = RandomVector(&rng, 60, 150);
      const SparseVector b = RandomVector(&rng, 60, 150);
      const RowViewOf vb(b, &rng);
      SparseVector via_view = a;
      via_view.AddScaled(vb.view(), factor);
      SparseVector via_vector = a;
      via_vector.AddScaled(b, factor);
      ExpectSameBits(via_view, AddScaledReference(a, b, factor));
      ExpectSameBits(via_vector, AddScaledReference(a, b, factor));
    }
  }
}

TEST(SparseRowViewTest, EmptyViewIsANoOp) {
  const SparseVector a = Make({{1, 2.0}, {5, 3.0}});
  SparseVector sum = a;
  sum.AddScaled(SparseRowView{}, 1.0);
  EXPECT_EQ(sum, a);
  EXPECT_EQ(a.Dot(SparseRowView{}), 0.0);
  EXPECT_EQ(SparseRowView{}.SquaredNorm(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVectorPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nidc
