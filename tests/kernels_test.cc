// Unit tests for the vectorized scoring kernels: dispatch-table plumbing
// (ParseKind / Available / Select) and bit-identity of every compiled-in
// kernel against the scalar reference on odd / aligned / tail posting
// lengths, with and without a home cluster.

#include "nidc/core/kernels/kernels.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

namespace nidc::kernels {
namespace {

// Restores the process-global kernel selection on scope exit.
struct KernelGuard {
  Kind saved = Active().kind;
  ~KernelGuard() { Select(saved); }
};

constexpr Kind kAllKinds[] = {Kind::kScalar, Kind::kAvx512};

// A self-owned padded SoA posting index plus one document row, with the
// same layout invariants FlatRepIndex maintains: per-term entries sorted by
// ascending distinct cluster id, arrays padded with kPostingPadding zeroed
// slots.
struct TestIndex {
  std::vector<size_t> offsets;
  std::vector<uint32_t> clusters;
  std::vector<double> weights;
  std::vector<uint32_t> row_terms;
  std::vector<double> row_values;
  size_t k = 0;

  PostingsView View() const {
    return {offsets.data(), clusters.data(), weights.data(),
            offsets.size() - 1, k};
  }
  DocRow Row() const { return {row_terms.data(), row_values.data(),
                               row_terms.size()}; }
  void Finish() {
    const size_t n = clusters.size();
    clusters.resize(n + kPostingPadding, 0);
    weights.resize(n + kPostingPadding, 0.0);
  }
};

// Posting lengths cycle 0..K (zero-length terms included), so every vector
// width sees full blocks, odd remainders, and empty tails. The row touches
// every term.
TestIndex MakeIndex(size_t k, size_t terms, uint64_t seed) {
  TestIndex idx;
  idx.k = k;
  Rng rng(seed);
  idx.offsets.push_back(0);
  for (size_t t = 0; t < terms; ++t) {
    const size_t len = t % (k + 1);
    std::vector<uint32_t> ids;
    for (size_t p : rng.SampleWithoutReplacement(k, len)) {
      ids.push_back(static_cast<uint32_t>(p));
    }
    std::sort(ids.begin(), ids.end());
    for (uint32_t c : ids) {
      idx.clusters.push_back(c);
      idx.weights.push_back((rng.NextDouble() - 0.25) * 0.1);
    }
    idx.offsets.push_back(idx.clusters.size());
    idx.row_terms.push_back(static_cast<uint32_t>(t));
    idx.row_values.push_back(rng.NextDouble() * 0.2);
  }
  idx.Finish();
  return idx;
}

TEST(KernelsTest, ParseKindRoundTripsAndRejectsUnknown) {
  for (Kind kind : kAllKinds) {
    Kind parsed;
    ASSERT_TRUE(ParseKind(KindName(kind), &parsed)) << KindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  Kind out;
  EXPECT_FALSE(ParseKind("", &out));
  EXPECT_FALSE(ParseKind("sse2", &out));
  EXPECT_FALSE(ParseKind("avx2", &out));  // no AVX2 kernel: unknown name
  EXPECT_FALSE(ParseKind("AVX512", &out));  // case-sensitive, like the env var
  EXPECT_FALSE(ParseKind("avx5121", &out));
}

TEST(KernelsTest, ScalarAlwaysAvailableAndSelectable) {
  KernelGuard guard;
  EXPECT_TRUE(Available(Kind::kScalar));
  Select(Kind::kScalar);
  EXPECT_EQ(Active().kind, Kind::kScalar);
  EXPECT_STREQ(Active().name, "scalar");
  ASSERT_NE(Active().score, nullptr);
  for (Kind kind : kAllKinds) {
    if (!Available(kind)) continue;
    Select(kind);
    EXPECT_EQ(Active().kind, kind);
    EXPECT_STREQ(Active().name, KindName(kind));
  }
}

TEST(KernelsTest, ExactKernelsBitIdenticalToScalar) {
  KernelGuard guard;
  // K values straddle the vector widths: tiny, exactly two AVX-512
  // chunks (16), just past them, and a multi-chunk spill.
  for (size_t k : {3u, 16u, 17u, 33u}) {
    TestIndex idx = MakeIndex(k, /*terms=*/97, /*seed=*/1000 + k);
    const PostingsView view = idx.View();
    const DocRow row = idx.Row();
    // Home absent (kNoHome) and every possible home cluster id.
    std::vector<uint32_t> homes = {kNoHome};
    for (size_t p = 0; p < k; ++p) homes.push_back(static_cast<uint32_t>(p));
    for (uint32_t home : homes) {
      Select(Kind::kScalar);
      std::vector<double> ref_scores(k);
      double ref_attached = 0.0;
      const uint64_t ref_entries =
          Active().score(view, row, home, ref_scores.data(), &ref_attached);
      for (Kind kind : kAllKinds) {
        if (kind == Kind::kScalar || !Available(kind)) continue;
        SCOPED_TRACE(std::string(KindName(kind)) + " k=" +
                     std::to_string(k) + " home=" + std::to_string(home));
        Select(kind);
        std::vector<double> scores(k, 123.0);  // kernel must zero these
        double attached = 123.0;
        const uint64_t entries =
            Active().score(view, row, home, scores.data(), &attached);
        EXPECT_EQ(entries, ref_entries);
        EXPECT_EQ(attached, ref_attached);
        for (size_t p = 0; p < k; ++p) {
          EXPECT_EQ(scores[p], ref_scores[p]) << "cluster " << p;
        }
      }
    }
  }
}

TEST(KernelsTest, EmptyRowAndEmptyPostingsScoreZero) {
  KernelGuard guard;
  TestIndex idx;
  idx.k = 4;
  idx.offsets = {0, 0, 0};  // two terms, both with empty postings
  idx.row_terms = {0, 1};
  idx.row_values = {0.25, 0.75};
  idx.Finish();
  for (Kind kind : kAllKinds) {
    if (!Available(kind)) continue;
    SCOPED_TRACE(KindName(kind));
    Select(kind);
    std::vector<double> scores(idx.k, 7.0);
    double attached = 7.0;
    EXPECT_EQ(Active().score(idx.View(), idx.Row(), kNoHome, scores.data(),
                             &attached),
              0u);
    for (double s : scores) EXPECT_EQ(s, 0.0);
    EXPECT_EQ(attached, 0.0);
    const DocRow empty{nullptr, nullptr, 0};
    EXPECT_EQ(Active().score(idx.View(), empty, 1, scores.data(),
                             &attached),
              0u);
    for (double s : scores) EXPECT_EQ(s, 0.0);
  }
}

}  // namespace
}  // namespace nidc::kernels
