#include "nidc/core/state_io.h"

#include <cstdio>
#include <utility>

#include <gtest/gtest.h>

#include "sparse_value.h"

namespace nidc {
namespace {

class StateIoTest : public testing::Test {
 protected:
  void SetUp() override {
    corpus_.AddText("iraq weapons inspection baghdad", 0.0, 1);
    corpus_.AddText("iraq sanctions baghdad embargo", 0.5, 1);
    corpus_.AddText("olympics skating nagano medal", 1.0, 2);
    corpus_.AddText("olympics hockey nagano final", 1.5, 2);
  }

  ForgettingParams Params() {
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 30.0;
    return p;
  }

  IncrementalOptions Options() {
    IncrementalOptions o;
    o.kmeans.k = 2;
    o.kmeans.seed = 3;
    return o;
  }

  Corpus corpus_;
};

TEST_F(StateIoTest, SerializeParseRoundTrip) {
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());

  const ClustererState state = CaptureState(clusterer);
  Result<ClustererState> parsed = ParseState(SerializeState(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->now, 2.0);
  EXPECT_DOUBLE_EQ(parsed->params.half_life_days, 7.0);
  EXPECT_EQ(parsed->active_docs, state.active_docs);
  ASSERT_TRUE(parsed->last_result.has_value());
  EXPECT_EQ(parsed->last_result->clusters, state.last_result->clusters);
  EXPECT_EQ(parsed->last_result->outliers, state.last_result->outliers);
  EXPECT_DOUBLE_EQ(parsed->last_result->g, state.last_result->g);
  EXPECT_EQ(parsed->last_result->iterations,
            state.last_result->iterations);
  EXPECT_EQ(parsed->last_result->converged, state.last_result->converged);
}

TEST_F(StateIoTest, StateWithoutResultRoundTrips) {
  ClustererState state;
  state.params = Params();
  state.now = 5.0;
  state.active_docs = {0, 2};
  Result<ClustererState> parsed = ParseState(SerializeState(state));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->last_result.has_value());
  EXPECT_EQ(parsed->active_docs, (std::vector<DocId>{0, 2}));
}

TEST_F(StateIoTest, FileRoundTrip) {
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());
  const std::string path = testing::TempDir() + "/nidc_state_test.txt";
  ASSERT_TRUE(SaveState(CaptureState(clusterer), path).ok());
  Result<ClustererState> loaded = LoadState(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->active_docs.size(), 4u);
  std::remove(path.c_str());
}

TEST_F(StateIoTest, RestoreReproducesStatisticsExactly) {
  IncrementalClusterer original(&corpus_, Params(), Options());
  ASSERT_TRUE(original.Step({0, 1}, 1.0).ok());
  ASSERT_TRUE(original.Step({2, 3}, 2.0).ok());

  auto restored = RestoreClusterer(&corpus_, Options(),
                                   CaptureState(original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ForgettingModel& a = original.model();
  const ForgettingModel& b = (*restored)->model();
  ASSERT_EQ(a.num_active(), b.num_active());
  EXPECT_DOUBLE_EQ(a.TotalWeight(), b.TotalWeight());
  for (DocId id : a.active_docs()) {
    EXPECT_DOUBLE_EQ(a.Weight(id), b.Weight(id)) << id;
    EXPECT_DOUBLE_EQ(a.PrDoc(id), b.PrDoc(id)) << id;
  }
  for (TermId t = 0; t < corpus_.vocabulary().size(); ++t) {
    EXPECT_NEAR(a.PrTerm(t), b.PrTerm(t), 1e-15) << t;
  }
}

TEST_F(StateIoTest, RestoredClustererContinuesSeamlessly) {
  IncrementalClusterer original(&corpus_, Params(), Options());
  ASSERT_TRUE(original.Step({0, 1, 2, 3}, 2.0).ok());
  auto restored = RestoreClusterer(&corpus_, Options(),
                                   CaptureState(original));
  ASSERT_TRUE(restored.ok());

  corpus_.AddText("tobacco settlement senate vote", 3.0, 3);
  auto step_restored = (*restored)->Step({4}, 3.0);
  auto step_original = original.Step({4}, 3.0);
  ASSERT_TRUE(step_restored.ok());
  ASSERT_TRUE(step_original.ok());
  // Same seeding (membership) + identical statistics → same clusters.
  EXPECT_EQ(step_restored->clustering.clusters,
            step_original->clustering.clusters);
}

TEST_F(StateIoTest, RestoreRecomputesRepresentatives) {
  IncrementalClusterer original(&corpus_, Params(), Options());
  ASSERT_TRUE(original.Step({0, 1, 2, 3}, 2.0).ok());
  auto restored = RestoreClusterer(&corpus_, Options(),
                                   CaptureState(original));
  ASSERT_TRUE(restored.ok());
  const auto& orig_result = *original.last_result();
  const auto& rest_result = *(*restored)->last_result();
  ASSERT_EQ(orig_result.representatives.size(),
            rest_result.representatives.size());
  for (size_t p = 0; p < orig_result.representatives.size(); ++p) {
    const auto& a = orig_result.representatives[p];
    const auto& b = rest_result.representatives[p];
    for (const auto& e : a.entries()) {
      EXPECT_NEAR(ValueAt(b, e.id), e.value, 1e-12);
    }
  }
}

TEST_F(StateIoTest, ResultSectionRoundTripsAsInTheSnapshot) {
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());
  const ClusteringResult& result = *clusterer.last_result();
  std::string section;
  AppendResultSection(result, &section);
  // The snapshot embeds the same bytes.
  EXPECT_NE(SerializeState(CaptureState(clusterer)).find(section),
            std::string::npos);
  Result<ClusteringResult> parsed = ParseResultSection(section);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->clusters, result.clusters);
  EXPECT_EQ(parsed->outliers, result.outliers);
  EXPECT_EQ(parsed->g, result.g);
  EXPECT_EQ(parsed->iterations, result.iterations);
  EXPECT_EQ(parsed->converged, result.converged);
  EXPECT_FALSE(ParseResultSection(section + "extra").ok());
  EXPECT_FALSE(ParseResultSection(section.substr(0, section.size() / 2)).ok());
}

// A state whose exact section holds the values a formatter gets wrong
// first: signed zeros, a subnormal, negatives and integral values.
ClustererState HandBuiltState() {
  ClustererState state;
  state.params.half_life_days = 7.0;
  state.params.life_span_days = 30.0;
  state.now = 2.5;
  state.step_count = 3;
  state.active_docs = {0, 2, 3};
  ClusteringResult result;
  result.clusters = {{0, 3}, {}};
  result.outliers = {2};
  result.g = 0.1;
  result.iterations = 2;
  result.converged = true;
  state.last_result = result;
  ExactModelState exact;
  exact.now = 2.5;
  exact.tdw = 1.0 / 3.0;
  exact.weights = {{0, 0.0}, {2, -0.0}, {3, 4.9406564584124654e-324}};
  exact.term_scale = 1e-5;
  exact.term_sums = {{1, -2.75}, {4, 3.0}, {9, -1.7976931348623157e308},
                     {12, 2.2250738585072014e-308 / 3}};
  state.exact = exact;
  return state;
}

TEST_F(StateIoTest, SerializedBytesArePinned) {
  // These bytes are the service digest (Tenant::StateDigest): a codec
  // change must not move them.
  EXPECT_EQ(SerializeState(HandBuiltState()),
            "nidc-state v2\n"
            "params 7 30\n"
            "now 2.5\n"
            "steps 3\n"
            "active 3 0 2 3\n"
            "clusters 2\n"
            "cluster 2 0 3\n"
            "cluster 0\n"
            "outliers 1 2\n"
            "g 0.10000000000000001\n"
            "iterations 2 1\n"
            "exact\n"
            "now 0x1.4p+1 tdw 0x1.5555555555555p-2\n"
            "weights 3 0 0x0p+0 2 -0x0p+0 3 0x0.0000000000001p-1022\n"
            "scale 0x1.4f8b588e368f1p-17\n"
            "terms 4 1 -0x1.6p+1 4 0x1.8p+1 9 -0x1.fffffffffffffp+1023 "
            "12 0x0.5555555555555p-1022\n");

  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());
  EXPECT_EQ(SerializeState(CaptureState(clusterer)),
            "nidc-state v2\n"
            "params 7 30\n"
            "now 2\n"
            "steps 1\n"
            "active 4 0 1 2 3\n"
            "clusters 2\n"
            "cluster 2 2 3\n"
            "cluster 2 0 1\n"
            "outliers 0\n"
            "g 0.24984685688976033\n"
            "iterations 2 1\n"
            "exact\n"
            "now 0x1p+1 tdw 0x1.c515c62f22b15p+1\n"
            "weights 4 0 0x1.a402feeb9c533p-1 1 0x1.b954806a97df1p-1 "
            "2 0x1.cfbb031a741a5p-1 3 0x1.e744964be278bp-1\n"
            "scale 0x1.a402feeb9c533p-1\n"
            "terms 12 0 0x1.067f318b89051p-1 1 0x1p-2 2 0x1p-2 "
            "3 0x1.067f318b89051p-1 4 0x1.0cfe6317120a2p-2 "
            "5 0x1.0cfe6317120a2p-2 6 0x1.21d1ecc6e2d1ap-1 "
            "7 0x1.1aa59c4115e7dp-2 8 0x1.21d1ecc6e2d1ap-1 "
            "9 0x1.1aa59c4115e7dp-2 10 0x1.28fe3d4cafbb7p-2 "
            "11 0x1.28fe3d4cafbb7p-2\n");
}

TEST_F(StateIoTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseState("").ok());
  EXPECT_FALSE(ParseState("random text").ok());
  EXPECT_FALSE(ParseState("nidc-state v2\n").ok());
  EXPECT_FALSE(ParseState("nidc-state v2\nparams -1 5\n").ok());
  EXPECT_FALSE(
      ParseState("nidc-state v2\nparams 7 30\nnow 1\nsteps 0\n"
                 "active 3 1 2\n").ok());
}

TEST_F(StateIoTest, RestoreRejectsForeignCorpus) {
  ClustererState state;
  state.params = Params();
  state.now = 10.0;
  state.active_docs = {0, 99};  // 99 does not exist
  EXPECT_EQ(RestoreClusterer(&corpus_, Options(), state).status().code(),
            StatusCode::kInvalidArgument);
  // Nor does a document the corpus has released.
  corpus_.ReleaseBefore(1);
  state.active_docs = {0, 2};
  EXPECT_EQ(RestoreClusterer(&corpus_, Options(), state).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateIoTest, RestoreRejectsFutureDocuments) {
  ClustererState state;
  state.params = Params();
  state.now = 0.2;  // doc 2 was acquired at t=1.0 > 0.2
  state.active_docs = {0, 2};
  EXPECT_EQ(RestoreClusterer(&corpus_, Options(), state).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadState("/no/such/state.txt").status().code(),
            StatusCode::kIOError);
}

TEST_F(StateIoTest, ExactSectionAndStepCountRoundTripBitExactly) {
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1}, 1.0).ok());
  ASSERT_TRUE(clusterer.Step({2, 3}, 2.0).ok());

  const ClustererState state = CaptureState(clusterer);
  EXPECT_EQ(state.step_count, 2u);

  Result<ClustererState> parsed = ParseState(SerializeState(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->step_count, 2u);
  // Hex-float (%a) serialization: every double survives to the last bit.
  EXPECT_EQ(parsed->exact.now, state.exact.now);
  EXPECT_EQ(parsed->exact.tdw, state.exact.tdw);
  EXPECT_EQ(parsed->exact.weights, state.exact.weights);
  EXPECT_EQ(parsed->exact.term_scale, state.exact.term_scale);
  EXPECT_EQ(parsed->exact.term_sums, state.exact.term_sums);
}

TEST_F(StateIoTest, RestoreRejectsDuplicateActiveIds) {
  ClustererState state;
  state.params = Params();
  state.now = 10.0;
  state.active_docs = {0, 1, 0};
  state.exact.now = 10.0;
  state.exact.tdw = 3.0;
  state.exact.weights = {{0, 1.0}, {1, 1.0}, {0, 1.0}};
  const Status status = RestoreClusterer(&corpus_, Options(), state).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("duplicate document 0"), std::string::npos);
}

TEST_F(StateIoTest, RestoreRejectsExactWeightsThatDisagreeWithActive) {
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());
  ClustererState state = CaptureState(clusterer);
  ASSERT_TRUE(RestoreClusterer(&corpus_, Options(), state).ok());
  // Checked on restore, so a hand-built state cannot skip it.
  std::swap(state.exact.weights[0], state.exact.weights[1]);
  EXPECT_EQ(RestoreClusterer(&corpus_, Options(), state).status().code(),
            StatusCode::kInvalidArgument);
  state.exact.weights.pop_back();
  EXPECT_EQ(RestoreClusterer(&corpus_, Options(), state).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StateIoTest, ParseRejectsV1AndTextWithoutExactSection) {
  // Only the bit-exact v2 format restores: a v1 text (no steps line, no
  // exact section) and a v2 text cut before its exact section both fail.
  EXPECT_FALSE(ParseState("nidc-state v1\n"
                          "params 7 30\n"
                          "now 2\n"
                          "active 2 0 1\n"
                          "clusters none\n")
                   .ok());
  IncrementalClusterer clusterer(&corpus_, Params(), Options());
  ASSERT_TRUE(clusterer.Step({0, 1, 2, 3}, 2.0).ok());
  const std::string text = SerializeState(CaptureState(clusterer));
  ASSERT_TRUE(ParseState(text).ok());
  const size_t exact = text.find("exact\n");
  ASSERT_NE(exact, std::string::npos);
  const Result<ClustererState> cut = ParseState(text.substr(0, exact));
  EXPECT_EQ(cut.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cut.status().ToString().find("missing exact section"),
            std::string::npos);
}

}  // namespace
}  // namespace nidc
