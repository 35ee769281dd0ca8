// Property test for the scoring-path ablation: for any corpus, K,
// assignment criterion, seed, shuffle setting and kernel, the
// two sweep configurations — merge (reference) and slotted (flat CSR index
// with move-only maintenance) — must produce *identical* ClusteringResults:
// same memberships, same outliers, and a bit-for-bit equal G history. The
// G trace is the sharpest oracle: every float produced by the Eq. 22–26
// cache updates feeds it, so a single rounding divergence anywhere in a
// sweep shows up as a g_history mismatch.

#include "nidc/core/extended_kmeans.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/kernels/kernels.h"
#include "nidc/corpus/corpus.h"
#include "nidc/forgetting/forgetting_model.h"
#include "nidc/obs/metrics.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

// Restores the process-global kernel selection on scope exit, so a failing
// assertion inside a kernel loop cannot leak a SIMD kernel into later tests.
struct KernelGuard {
  kernels::Kind saved = kernels::Active().kind;
  ~KernelGuard() { kernels::Select(saved); }
};

// A corpus + model + context bundle on the heap (the model and context hold
// pointers into the corpus, so the bundle must not move).
struct Env {
  Corpus corpus;
  std::unique_ptr<ForgettingModel> model;
  std::unique_ptr<SimilarityContext> ctx;
  std::vector<DocId> docs;
};

std::unique_ptr<Env> MakeEnv(uint64_t seed, size_t n_docs,
                             size_t words_per_doc = 8) {
  static const char* kPool[] = {
      "alpha", "bravo", "charlie", "delta", "echo",   "fox",
      "golf",  "hotel", "india",   "juliet", "kilo",  "lima",
      "mike",  "nov",   "oscar",   "papa",  "quebec", "romeo",
      "sierra", "tango", "umbra",  "victor", "whiskey", "xray",
      "yankee", "zulu"};
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  auto env = std::make_unique<Env>();
  Rng words(seed);
  for (size_t i = 0; i < n_docs; ++i) {
    std::string text;
    for (size_t j = 0; j < words_per_doc; ++j) {
      if (j > 0) text += ' ';
      text += kPool[words.NextBounded(kPoolSize)];
    }
    env->corpus.AddText(text, 0.25 + 0.01 * static_cast<double>(i),
                        static_cast<TopicId>(i % 5));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(2.0);
  env->docs.resize(n_docs);
  for (DocId d = 0; d < static_cast<DocId>(n_docs); ++d) env->docs[d] = d;
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(*env->model);
  return env;
}

ClusteringResult RunConfig(const Env& env, ExtendedKMeansOptions options,
                           ClusterScoring scoring,
                           const std::optional<KMeansSeeds>& seeds) {
  options.scoring = scoring;
  auto result = RunExtendedKMeans(*env.ctx, env.docs, options, seeds);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : ClusteringResult{};
}

// Runs both configurations and asserts identical outputs. g_history is
// compared with EXPECT_EQ on the double vectors — bit-for-bit, no
// tolerance.
void ExpectAllConfigsIdentical(const Env& env,
                               const ExtendedKMeansOptions& options,
                               const std::optional<KMeansSeeds>& seeds =
                                   std::nullopt) {
  const ClusteringResult merge =
      RunConfig(env, options, ClusterScoring::kMerge, seeds);
  const ClusteringResult slotted =
      RunConfig(env, options, ClusterScoring::kSlotted, seeds);
  EXPECT_EQ(merge.clusters, slotted.clusters);
  EXPECT_EQ(merge.outliers, slotted.outliers);
  EXPECT_EQ(merge.g_history, slotted.g_history);
  EXPECT_EQ(merge.iterations, slotted.iterations);
  EXPECT_EQ(merge.converged, slotted.converged);
}

TEST(SweepEquivalenceTest, RandomCorporaAcrossKAndCriterion) {
  for (uint64_t corpus_seed : {11u, 22u, 33u}) {
    auto env = MakeEnv(corpus_seed, /*n_docs=*/70);
    for (size_t k : {3u, 8u}) {
      for (AssignmentCriterion criterion :
           {AssignmentCriterion::kGIncrease,
            AssignmentCriterion::kAvgSimIncrease}) {
        SCOPED_TRACE("corpus_seed=" + std::to_string(corpus_seed) +
                     " k=" + std::to_string(k) + " criterion=" +
                     std::to_string(static_cast<int>(criterion)));
        ExtendedKMeansOptions options;
        options.k = k;
        options.seed = corpus_seed * 101 + k;
        options.criterion = criterion;
        ExpectAllConfigsIdentical(*env, options);
      }
    }
  }
}

TEST(SweepEquivalenceTest, ShuffledSweepOrderStaysIdentical) {
  auto env = MakeEnv(17, /*n_docs=*/50);
  ExtendedKMeansOptions options;
  options.k = 5;
  options.seed = 4;
  options.shuffle_each_iteration = true;
  ExpectAllConfigsIdentical(*env, options);
}

TEST(SweepEquivalenceTest, DisjointVocabulariesExerciseEmptyClusterReseed) {
  // Every document gets a private vocabulary: cross-document similarities
  // are all zero, so clusters collapse to singletons, documents fall to the
  // outlier list, and the first-empty-cluster reseed branch (including the
  // slotted sweep's n_detached == 0 physical roundtrip) fires constantly.
  auto env = std::make_unique<Env>();
  for (size_t i = 0; i < 6; ++i) {
    const std::string index = std::to_string(i);
    const std::string tag = "w" + index;
    env->corpus.AddText(tag + "a " + tag + "b " + tag + "c",
                        0.25 + 0.01 * static_cast<double>(i),
                        static_cast<TopicId>(i));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(1.0);
  env->docs = {0, 1, 2, 3, 4, 5};
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(*env->model);

  for (size_t k : {4u, 10u}) {  // 10 > n_docs: effective-K reduction too
    for (AssignmentCriterion criterion :
         {AssignmentCriterion::kGIncrease,
          AssignmentCriterion::kAvgSimIncrease}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " criterion=" +
                   std::to_string(static_cast<int>(criterion)));
      ExtendedKMeansOptions options;
      options.k = k;
      options.seed = 3;
      options.criterion = criterion;
      ExpectAllConfigsIdentical(*env, options);
    }
  }
}

TEST(SweepEquivalenceTest, MembershipSeedingStaysIdentical) {
  auto env = MakeEnv(29, /*n_docs=*/60);
  ExtendedKMeansOptions options;
  options.k = 5;
  options.seed = 13;
  const ClusteringResult previous =
      RunConfig(*env, options, ClusterScoring::kMerge, std::nullopt);
  KMeansSeeds seeds;
  seeds.memberships = previous.clusters;
  ExpectAllConfigsIdentical(*env, options, seeds);
}

TEST(SweepEquivalenceTest, KernelDimensionStaysIdentical) {
  // The kernel dimension of the ablation: for every compiled-in scoring
  // kernel (unavailable ones skipped) × K on both sides of 16 (two full
  // AVX-512 chunks) × corpus seed, the slotted sweep must match the merge
  // reference bit-for-bit. The shared vocabulary makes posting
  // lengths span 1..K, so odd lengths and vector-tail remainders are
  // exercised on every scan.
  KernelGuard guard;
  const kernels::Kind kinds[] = {kernels::Kind::kScalar,
                                 kernels::Kind::kAvx512};
  for (uint64_t corpus_seed : {41u, 43u}) {
    auto env = MakeEnv(corpus_seed, /*n_docs=*/70);
    for (size_t k : {5u, 20u}) {
      ExtendedKMeansOptions options;
      options.k = k;
      options.seed = corpus_seed * 7 + k;
      kernels::Select(kernels::Kind::kScalar);
      const ClusteringResult merge =
          RunConfig(*env, options, ClusterScoring::kMerge, std::nullopt);
      for (kernels::Kind kind : kinds) {
        if (!kernels::Available(kind)) continue;
        SCOPED_TRACE("seed=" + std::to_string(corpus_seed) +
                     " k=" + std::to_string(k) + " kernel=" +
                     kernels::KindName(kind));
        kernels::Select(kind);
        const ClusteringResult slotted =
            RunConfig(*env, options, ClusterScoring::kSlotted, std::nullopt);
        EXPECT_EQ(merge.clusters, slotted.clusters);
        EXPECT_EQ(merge.outliers, slotted.outliers);
        EXPECT_EQ(merge.g_history, slotted.g_history);
        EXPECT_EQ(merge.iterations, slotted.iterations);
      }
    }
  }
}

TEST(SweepEquivalenceTest, KernelsStayIdenticalAcrossKernels) {
  // Every available kernel against the scalar baseline. The scan counters
  // and the posting-maintenance counters are pure functions of the input
  // and the decisions (every kernel counts end − begin postings per row
  // term), so they must match too.
  KernelGuard guard;
  kernels::Select(kernels::Kind::kScalar);
  auto env = MakeEnv(47, /*n_docs=*/60);
  ExtendedKMeansOptions options;
  options.k = 6;
  options.seed = 19;
  KMeansProfile base_profile;
  obs::MetricsRegistry base_metrics;
  options.profile = &base_profile;
  options.metrics = &base_metrics;
  const ClusteringResult base =
      RunConfig(*env, options, ClusterScoring::kSlotted, std::nullopt);
  ASSERT_GT(base_profile.entries_scanned, 0u);
  ASSERT_GT(base_profile.refresh_entries, 0u);
  const char* const maintenance[] = {
      "rep_index.moves_applied",      "rep_index.delta_entries",
      "rep_index.tombstones",         "rep_index.tombstones_revived",
      "rep_index.arena_peak_entries", "rep_index.compactions"};
  // The run moves documents and appends first-seen pairs mid-sweep.
  ASSERT_GT(base_metrics.GetCounter("rep_index.moves_applied")->Value(), 0u);
  ASSERT_GT(base_metrics.GetCounter("rep_index.delta_entries")->Value(), 0u);
  ASSERT_GT(base_profile.arena_peak_entries, 0u);
  for (kernels::Kind kind :
       {kernels::Kind::kScalar, kernels::Kind::kAvx512}) {
    if (!kernels::Available(kind)) continue;
    SCOPED_TRACE(std::string("kernel=") + kernels::KindName(kind));
    kernels::Select(kind);
    KMeansProfile profile;
    obs::MetricsRegistry metrics;
    ExtendedKMeansOptions opts = options;
    opts.profile = &profile;
    opts.metrics = &metrics;
    const ClusteringResult got =
        RunConfig(*env, opts, ClusterScoring::kSlotted, std::nullopt);
    EXPECT_EQ(base.clusters, got.clusters);
    EXPECT_EQ(base.outliers, got.outliers);
    EXPECT_EQ(base.g_history, got.g_history);
    EXPECT_EQ(base_profile.entries_scanned, profile.entries_scanned);
    EXPECT_EQ(base_profile.docs_scored, profile.docs_scored);
    EXPECT_EQ(base_profile.refresh_entries, profile.refresh_entries);
    EXPECT_EQ(base_profile.arena_peak_entries, profile.arena_peak_entries);
    EXPECT_EQ(base_profile.arena_peak_growth, profile.arena_peak_growth);
    for (const char* counter : maintenance) {
      EXPECT_EQ(base_metrics.GetCounter(counter)->Value(),
                metrics.GetCounter(counter)->Value())
          << counter;
    }
  }
}

TEST(SweepEquivalenceTest, NearTieArgmaxStaysIdentical) {
  // A corpus of near-duplicate documents: clusters end up with nearly
  // identical (and some exactly tied) gains, so the argmax and its
  // first-wins tie-break must come out the same on every kernel's slotted
  // sweep as on the merge reference.
  KernelGuard guard;
  auto env = std::make_unique<Env>();
  for (size_t i = 0; i < 24; ++i) {
    // Three groups of near-duplicates; the i % 3 == 0 group is exactly
    // duplicated text, producing exact score ties between clusters.
    std::string text = "common core words shared by every doc";
    if (i % 3 == 1) text += " tilt";
    if (i % 3 == 2) text += " other";
    env->corpus.AddText(text, 0.25 + 0.001 * static_cast<double>(i),
                        static_cast<TopicId>(i % 3));
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  env->model = std::make_unique<ForgettingModel>(&env->corpus, params);
  env->model->AdvanceTo(1.0);
  env->docs.resize(24);
  for (DocId d = 0; d < 24; ++d) env->docs[d] = d;
  env->model->AddDocuments(env->docs);
  env->ctx = std::make_unique<SimilarityContext>(*env->model);

  ExtendedKMeansOptions options;
  options.k = 4;
  options.seed = 11;
  const ClusteringResult merge =
      RunConfig(*env, options, ClusterScoring::kMerge, std::nullopt);
  for (kernels::Kind kind :
       {kernels::Kind::kScalar, kernels::Kind::kAvx512}) {
    if (!kernels::Available(kind)) continue;
    SCOPED_TRACE(kernels::KindName(kind));
    kernels::Select(kind);
    const ClusteringResult slotted =
        RunConfig(*env, options, ClusterScoring::kSlotted, std::nullopt);
    EXPECT_EQ(merge.clusters, slotted.clusters);
    EXPECT_EQ(merge.outliers, slotted.outliers);
    EXPECT_EQ(merge.g_history, slotted.g_history);
  }
}

TEST(SweepEquivalenceTest, PartlyExpiredMembershipSeedsStayIdentical) {
  // What expiry leaves of a previous clustering: an empty cluster, one
  // whose members have all left the context, and one live singleton. The
  // seed leaves two clusters empty, and both sweeps must recover through
  // the same reseed decisions.
  auto env = MakeEnv(37, /*n_docs=*/40);
  KMeansSeeds seeds;
  seeds.memberships = {{}, {1000, 1001}, {0}};
  ExtendedKMeansOptions options;
  options.k = 3;
  options.seed = 2;
  ExpectAllConfigsIdentical(*env, options, seeds);
}

TEST(SweepEquivalenceTest, FullyExpiredMembershipSeedRestartsRandomly) {
  // No seeded member is in the context, with as many seed clusters as k
  // and with more: the run restarts from K random singletons, exactly as
  // an unseeded run with the same seed does, and inherits no ids.
  auto env = MakeEnv(39, /*n_docs=*/40);
  ExtendedKMeansOptions options;
  options.k = 3;
  options.seed = 6;
  options.first_cluster_id = 100;
  for (const std::vector<std::vector<DocId>>& memberships :
       std::vector<std::vector<std::vector<DocId>>>{
           {{1000}, {}, {1001, 1002}}, {{1000}, {}, {1001}, {1002}, {}}}) {
    SCOPED_TRACE("seed clusters=" + std::to_string(memberships.size()));
    KMeansSeeds seeds;
    seeds.memberships = memberships;
    for (size_t p = 0; p < memberships.size(); ++p) {
      seeds.cluster_ids.push_back(7 + p);
    }
    ExpectAllConfigsIdentical(*env, options, seeds);
    for (ClusterScoring scoring :
         {ClusterScoring::kMerge, ClusterScoring::kSlotted}) {
      const ClusteringResult seeded = RunConfig(*env, options, scoring, seeds);
      const ClusteringResult unseeded =
          RunConfig(*env, options, scoring, std::nullopt);
      EXPECT_EQ(seeded.clusters, unseeded.clusters);
      EXPECT_EQ(seeded.outliers, unseeded.outliers);
      EXPECT_EQ(seeded.g_history, unseeded.g_history);
      EXPECT_EQ(seeded.cluster_ids, unseeded.cluster_ids);
      for (uint64_t id : seeded.cluster_ids) EXPECT_GE(id, 100u);
    }
  }
}

}  // namespace
}  // namespace nidc
