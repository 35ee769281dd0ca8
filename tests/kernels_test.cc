// Unit tests for the vectorized scoring kernels: dispatch-table plumbing
// (ParseKind / Available / Select) and bit-identity of every compiled-in
// kernel against the scalar reference on odd / aligned / tail posting
// lengths, with and without a home cluster, on both the compact layout a
// rebuild leaves and the relocated layout mid-sweep appends leave.

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
// same layout invariants FlatRepIndex maintains: each term's run names
// distinct clusters, arrays padded with kPostingPadding zeroed slots.
struct TestIndex {
  std::vector<size_t> begins;
  std::vector<size_t> ends;
  std::vector<uint32_t> clusters;
  std::vector<double> weights;
  std::vector<uint32_t> row_terms;
  std::vector<double> row_values;
  size_t k = 0;

  PostingsView View() const {
    return {begins.data(), ends.data(), clusters.data(), weights.data(),
            begins.size(), k};
  }
  DocRow Row() const { return {row_terms.data(), row_values.data(),
                               row_terms.size()}; }
  void Finish() {
    const size_t n = clusters.size();
    clusters.resize(n + kPostingPadding, 0);
    weights.resize(n + kPostingPadding, 0.0);
  }
};

// Compact layout: runs back to back in term order, each sorted by cluster.
// Posting lengths cycle 0..K (zero-length terms included), so every vector
// width sees full blocks, odd remainders, and empty tails. The row touches
// every term.
TestIndex MakeIndex(size_t k, size_t terms, uint64_t seed) {
  TestIndex idx;
  idx.k = k;
  Rng rng(seed);
  for (size_t t = 0; t < terms; ++t) {
    idx.begins.push_back(idx.clusters.size());
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
    idx.ends.push_back(idx.clusters.size());
    idx.row_terms.push_back(static_cast<uint32_t>(t));
    idx.row_values.push_back(rng.NextDouble() * 0.2);
  }
  idx.Finish();
  return idx;
}

// The same postings and row as `compact`, in the layout that mid-sweep
// appends leave behind: runs sit in shuffled term order, not contiguous,
// each in shuffled cluster order, with stale entries (in-range cluster ids,
// nonzero weights) between them; the last run ends exactly kPostingPadding
// slots before the array end and has an odd length, so vector loads on its
// tail reach into the padding.
TestIndex Relocate(const TestIndex& compact, uint64_t seed) {
  TestIndex idx;
  idx.k = compact.k;
  idx.row_terms = compact.row_terms;
  idx.row_values = compact.row_values;
  const size_t terms = compact.begins.size();
  idx.begins.resize(terms);
  idx.ends.resize(terms);
  Rng rng(seed);
  std::vector<size_t> order(terms);
  for (size_t t = 0; t < terms; ++t) order[t] = t;
  rng.Shuffle(&order);
  // Term 1 holds a single entry in MakeIndex: it goes last.
  std::swap(*std::find(order.begin(), order.end(), size_t{1}), order.back());
  for (size_t t : order) {
    for (size_t s = 1 + rng.NextBounded(3); s > 0; --s) {
      idx.clusters.push_back(static_cast<uint32_t>(rng.NextBounded(idx.k)));
      idx.weights.push_back(0.5 + rng.NextDouble());
    }
    std::vector<size_t> run;
    for (size_t e = compact.begins[t]; e < compact.ends[t]; ++e) {
      run.push_back(e);
    }
    rng.Shuffle(&run);
    idx.begins[t] = idx.clusters.size();
    for (size_t e : run) {
      idx.clusters.push_back(compact.clusters[e]);
      idx.weights.push_back(compact.weights[e]);
    }
    idx.ends[t] = idx.clusters.size();
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
    const TestIndex compact = MakeIndex(k, /*terms=*/97, /*seed=*/1000 + k);
    const TestIndex relocated = Relocate(compact, /*seed=*/2000 + k);
    const DocRow row = compact.Row();
    // Home absent (kNoHome) and every possible home cluster id.
    std::vector<uint32_t> homes = {kNoHome};
    for (size_t p = 0; p < k; ++p) homes.push_back(static_cast<uint32_t>(p));
    for (uint32_t home : homes) {
      // The reference is the scalar kernel on the compact layout; every
      // kernel, scalar included, must reproduce it on the relocated one.
      Select(Kind::kScalar);
      std::vector<double> ref_scores(k);
      double ref_attached = 0.0;
      const uint64_t ref_entries = Active().score(
          compact.View(), row, home, ref_scores.data(), &ref_attached);
      for (Kind kind : kAllKinds) {
        if (!Available(kind)) continue;
        Select(kind);
        for (const TestIndex* idx : {&compact, &relocated}) {
          SCOPED_TRACE(std::string(KindName(kind)) + " k=" +
                       std::to_string(k) + " home=" + std::to_string(home) +
                       (idx == &compact ? " compact" : " relocated"));
          std::vector<double> scores(k, 123.0);  // kernel must zero these
          double attached = 123.0;
          const uint64_t entries =
              Active().score(idx->View(), row, home, scores.data(), &attached);
          EXPECT_EQ(entries, ref_entries);
          EXPECT_EQ(attached, ref_attached);
          for (size_t p = 0; p < k; ++p) {
            EXPECT_EQ(scores[p], ref_scores[p]) << "cluster " << p;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, EmptyRowAndEmptyPostingsScoreZero) {
  KernelGuard guard;
  TestIndex idx;
  idx.k = 4;
  idx.begins = {0, 0};  // two terms, both with empty postings
  idx.ends = {0, 0};
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
