#include "nidc/text/sparse_vector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

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
  EXPECT_DOUBLE_EQ(v.ValueAt(3), 3.5);
  EXPECT_DOUBLE_EQ(v.ValueAt(1), 1.0);
}

TEST(SparseVectorTest, ValueAtMissingIsZero) {
  SparseVector v = Make({{1, 1.0}});
  EXPECT_DOUBLE_EQ(v.ValueAt(0), 0.0);
  EXPECT_DOUBLE_EQ(v.ValueAt(2), 0.0);
}

TEST(SparseVectorTest, EmptyVector) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_DOUBLE_EQ(v.Norm(), 0.0);
  EXPECT_DOUBLE_EQ(v.Sum(), 0.0);
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

TEST(SparseVectorTest, SumAddsValues) {
  SparseVector a = Make({{1, 2.0}, {4, 3.0}});
  EXPECT_DOUBLE_EQ(a.Sum(), 5.0);
}

TEST(SparseVectorTest, ScaledMultipliesAll) {
  SparseVector a = Make({{1, 2.0}, {4, 3.0}});
  SparseVector b = a.Scaled(2.0);
  EXPECT_DOUBLE_EQ(b.ValueAt(1), 4.0);
  EXPECT_DOUBLE_EQ(b.ValueAt(4), 6.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(1), 2.0);  // original untouched
}

TEST(SparseVectorTest, AddScaledMergesIds) {
  SparseVector a = Make({{1, 1.0}, {3, 1.0}});
  SparseVector b = Make({{2, 1.0}, {3, 2.0}});
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(1), 1.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(2), 2.0);
  EXPECT_DOUBLE_EQ(a.ValueAt(3), 5.0);
  ASSERT_EQ(a.size(), 3u);
  // Order invariant preserved.
  EXPECT_LT(a.entries()[0].id, a.entries()[1].id);
  EXPECT_LT(a.entries()[1].id, a.entries()[2].id);
}

TEST(SparseVectorTest, AddScaledIntoEmpty) {
  SparseVector a;
  SparseVector b = Make({{2, 3.0}});
  a.AddScaled(b, 1.5);
  EXPECT_DOUBLE_EQ(a.ValueAt(2), 4.5);
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
  a.Prune(1e-12);
  EXPECT_DOUBLE_EQ(a.ValueAt(1), original.ValueAt(1));
  EXPECT_DOUBLE_EQ(a.ValueAt(5), original.ValueAt(5));
  EXPECT_DOUBLE_EQ(a.ValueAt(9), 0.0);
}

TEST(SparseVectorTest, PruneDropsSmallEntries) {
  SparseVector a = Make({{1, 1e-15}, {2, 1.0}, {3, -1e-15}});
  a.Prune(1e-12);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a.ValueAt(2), 1.0);
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
      expected += a.ValueAt(id) * b.ValueAt(id);
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
      EXPECT_NEAR(sum.ValueAt(id), a.ValueAt(id) + f * b.ValueAt(id), 1e-9);
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

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVectorPropertyTest,
                         testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nidc
