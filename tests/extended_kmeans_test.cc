#include "nidc/core/extended_kmeans.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/obs/metrics.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

// Three well-separated synthetic topics, several docs each.
class ExtendedKMeansTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* iraq[] = {"iraq weapons inspection baghdad",
                          "iraq sanctions embargo baghdad",
                          "iraq inspectors weapons crisis",
                          "baghdad standoff weapons inspection"};
    const char* games[] = {"olympics skating medal nagano",
                           "olympics hockey nagano final",
                           "skating gold nagano games",
                           "olympics medal ceremony games"};
    const char* court[] = {"tobacco settlement senate lawsuit",
                           "tobacco lawsuit billions settlement",
                           "senate vote tobacco bill",
                           "settlement lawsuit vote senate"};
    DayTime t = 0.0;
    for (const char* s : iraq) corpus_.AddText(s, t += 0.1, 1);
    for (const char* s : games) corpus_.AddText(s, t += 0.1, 2);
    for (const char* s : court) corpus_.AddText(s, t += 0.1, 3);
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(2.0);
    std::vector<DocId> ids(12);
    for (DocId d = 0; d < 12; ++d) ids[d] = d;
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
    docs_ = ids;
  }

  // Returns the set of ground-truth topics represented in each non-empty
  // cluster.
  std::vector<std::set<TopicId>> TopicsPerCluster(
      const ClusteringResult& result) {
    std::vector<std::set<TopicId>> out;
    for (const auto& members : result.clusters) {
      if (members.empty()) continue;
      std::set<TopicId> topics;
      for (DocId d : members) topics.insert(corpus_.doc(d).topic);
      out.push_back(std::move(topics));
    }
    return out;
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
  std::vector<DocId> docs_;
};

TEST_F(ExtendedKMeansTest, RecoversPlantedTopics) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 5;
  Result<ClusteringResult> result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every document lands somewhere (no outliers in this easy instance);
  // every non-empty cluster is topic-pure.
  EXPECT_EQ(result->TotalAssigned() + result->outliers.size(), 12u);
  for (const auto& topics : TopicsPerCluster(*result)) {
    EXPECT_EQ(topics.size(), 1u);
  }
}

TEST_F(ExtendedKMeansTest, ResultIsDeterministicForFixedSeed) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 17;
  auto a = RunExtendedKMeans(*ctx_, docs_, opts);
  auto b = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->clusters, b->clusters);
  EXPECT_EQ(a->outliers, b->outliers);
  EXPECT_DOUBLE_EQ(a->g, b->g);
}

TEST_F(ExtendedKMeansTest, ConvergesWithinIterationCap) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 50;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->iterations, 50);
  EXPECT_EQ(result->g_history.size(),
            static_cast<size_t>(result->iterations) + 1);
}

TEST_F(ExtendedKMeansTest, GIsPositiveAfterConvergence) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->g, 0.0);
  EXPECT_DOUBLE_EQ(result->g, result->g_history.back());
}

TEST_F(ExtendedKMeansTest, KLargerThanNIsClamped) {
  ExtendedKMeansOptions opts;
  opts.k = 100;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 12u);
}

TEST_F(ExtendedKMeansTest, KOneGroupsEverythingOrOutliers) {
  ExtendedKMeansOptions opts;
  opts.k = 1;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 1u);
  EXPECT_EQ(result->clusters[0].size() + result->outliers.size(), 12u);
}

TEST_F(ExtendedKMeansTest, RejectsEmptyInput) {
  ExtendedKMeansOptions opts;
  EXPECT_EQ(RunExtendedKMeans(*ctx_, {}, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtendedKMeansTest, RejectsUnknownDocument) {
  ExtendedKMeansOptions opts;
  EXPECT_EQ(RunExtendedKMeans(*ctx_, {999}, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtendedKMeansTest, RejectsBadOptions) {
  ExtendedKMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunExtendedKMeans(*ctx_, docs_, opts).ok());
  opts.k = 3;
  opts.max_iterations = 0;
  EXPECT_FALSE(RunExtendedKMeans(*ctx_, docs_, opts).ok());
  opts.max_iterations = 10;
  opts.delta = -1.0;
  EXPECT_FALSE(RunExtendedKMeans(*ctx_, docs_, opts).ok());
}

TEST_F(ExtendedKMeansTest, DisjointDocumentBecomesOutlier) {
  // Add a document sharing no vocabulary with anything else.
  corpus_.AddText("xylophone quixotic zephyr", 2.0, 9);
  model_->AddDocuments({12});
  SimilarityContext ctx(*model_);
  std::vector<DocId> docs = docs_;
  docs.push_back(12);
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 11;
  auto result = RunExtendedKMeans(ctx, docs, opts);
  ASSERT_TRUE(result.ok());
  // The disjoint doc can never increase any cluster's avg_sim unless it
  // seeds a cluster itself.
  const int cluster = result->ClusterOf(12);
  const bool outlier = std::find(result->outliers.begin(),
                                 result->outliers.end(),
                                 12) != result->outliers.end();
  if (!outlier) {
    ASSERT_GE(cluster, 0);
    EXPECT_EQ(result->clusters[static_cast<size_t>(cluster)].size(), 1u);
  } else {
    EXPECT_EQ(cluster, kUnassigned);
  }
}

TEST_F(ExtendedKMeansTest, MembershipSeedingReproducesStructure) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 5;
  auto first = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(first.ok());

  KMeansSeeds seeds;
  seeds.memberships = first->clusters;
  auto second = RunExtendedKMeans(*ctx_, docs_, opts, seeds);
  ASSERT_TRUE(second.ok());
  // Seeded from a converged state, one sweep suffices.
  EXPECT_EQ(second->iterations, 1);
  EXPECT_TRUE(second->converged);
  EXPECT_NEAR(second->g, first->g, 1e-9);
}

TEST_F(ExtendedKMeansTest, MembershipSeedWithTooManyClustersRejected) {
  // More non-empty seed clusters than k: nothing to drop, still an error.
  KMeansSeeds seeds;
  for (DocId d = 0; d < 10; ++d) seeds.memberships.push_back({d});
  ExtendedKMeansOptions opts;
  opts.k = 3;
  EXPECT_EQ(RunExtendedKMeans(*ctx_, docs_, opts, seeds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtendedKMeansTest, MembershipSeedDropsClustersWithNoActiveMember) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 5;
  opts.first_cluster_id = 100;
  auto first = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->clusters.size(), 3u);

  // What the previous step left when expiry took documents 40 and 41 (not
  // in the context) and an empty cluster: five seed clusters for k = 3.
  KMeansSeeds padded;
  padded.memberships = {{40}, first->clusters[0], {}, first->clusters[1],
                        {41}, first->clusters[2]};
  padded.cluster_ids = {7, first->cluster_ids[0], 8, first->cluster_ids[1],
                        9, first->cluster_ids[2]};
  KMeansSeeds exact;
  exact.memberships = first->clusters;
  exact.cluster_ids = first->cluster_ids;
  opts.first_cluster_id = first->next_cluster_id;
  auto dropped = RunExtendedKMeans(*ctx_, docs_, opts, padded);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  auto reference = RunExtendedKMeans(*ctx_, docs_, opts, exact);
  ASSERT_TRUE(reference.ok());
  // The survivors seed exactly as if the dropped clusters never existed,
  // keeping their stable ids.
  EXPECT_EQ(dropped->clusters, reference->clusters);
  EXPECT_EQ(dropped->outliers, reference->outliers);
  EXPECT_EQ(dropped->g, reference->g);
  EXPECT_EQ(dropped->cluster_ids, reference->cluster_ids);
  EXPECT_EQ(dropped->cluster_ids, first->cluster_ids);
}

TEST_F(ExtendedKMeansTest, ShuffledSweepStillRecoversTopics) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.seed = 23;
  opts.shuffle_each_iteration = true;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& topics : TopicsPerCluster(*result)) {
    EXPECT_EQ(topics.size(), 1u);
  }
}

TEST_F(ExtendedKMeansTest, IndexedScoringMatchesMergeScoring) {
  // The slotted posting-index path must reproduce the serial merge path's
  // clustering exactly: same memberships, same outliers, same G trajectory.
  for (const AssignmentCriterion criterion :
       {AssignmentCriterion::kGIncrease,
        AssignmentCriterion::kAvgSimIncrease}) {
    ExtendedKMeansOptions merge_opts;
    merge_opts.k = 3;
    merge_opts.seed = 5;
    merge_opts.criterion = criterion;
    merge_opts.scoring = ClusterScoring::kMerge;
    ExtendedKMeansOptions slotted_opts = merge_opts;
    slotted_opts.scoring = ClusterScoring::kSlotted;
    auto merge = RunExtendedKMeans(*ctx_, docs_, merge_opts);
    auto slotted = RunExtendedKMeans(*ctx_, docs_, slotted_opts);
    ASSERT_TRUE(merge.ok());
    ASSERT_TRUE(slotted.ok());
    EXPECT_EQ(merge->clusters, slotted->clusters);
    EXPECT_EQ(merge->outliers, slotted->outliers);
    ASSERT_EQ(merge->g_history.size(), slotted->g_history.size());
    for (size_t i = 0; i < merge->g_history.size(); ++i) {
      EXPECT_NEAR(merge->g_history[i], slotted->g_history[i], 1e-12);
    }
  }
}

TEST_F(ExtendedKMeansTest, RefreshEntriesCountEveryRefreshedPsiEntry) {
  // kmeans.refresh_entries is Σ over refreshes of Σ |ψ_d| over the
  // assigned documents: seeding's refresh covers the seeded members, and
  // the refresh after sweep i covers the memberships a run capped at i
  // sweeps returns. δ = 0 stops a run only when G falls.
  const auto psi_entries =
      [&](const std::vector<std::vector<DocId>>& clusters) {
        uint64_t n = 0;
        for (const auto& members : clusters) {
          for (DocId id : members) n += ctx_->Psi(id).size;
        }
        return n;
      };
  KMeansSeeds seeds;
  seeds.memberships = {{0, 1}, {4}, {8, 9, 10}};
  for (const ClusterScoring scoring :
       {ClusterScoring::kMerge, ClusterScoring::kSlotted}) {
    ExtendedKMeansOptions opts;
    opts.k = 3;
    opts.delta = 0.0;
    opts.scoring = scoring;
    uint64_t expected = psi_entries(seeds.memberships);
    int checked = 0;
    for (int n = 1; n <= 4; ++n) {
      SCOPED_TRACE("sweeps " + std::to_string(n));
      KMeansProfile profile;
      obs::MetricsRegistry metrics;
      opts.max_iterations = n;
      opts.profile = &profile;
      opts.metrics = &metrics;
      auto result = RunExtendedKMeans(*ctx_, docs_, opts, seeds);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (result->iterations < n) break;  // stopped before the cap
      expected += psi_entries(result->clusters);
      EXPECT_EQ(profile.refresh_entries, expected);
      EXPECT_EQ(metrics.GetCounter("kmeans.refresh_entries")->Value(),
                expected);
      checked = n;
    }
    EXPECT_GE(checked, 3);
  }
}

TEST_F(ExtendedKMeansTest, ConcurrentRunsMatchSerial) {
  // Each run refreshes through its own ClusterSet's scratch, so two runs
  // on two threads, over different contexts, compute exactly what they
  // compute alone — under TSan too, which runs this suite.
  Corpus corpus;
  Rng words(31);
  const char* pool[] = {"alpha", "bravo", "charlie", "delta", "echo",
                        "fox",   "golf",  "hotel",   "india", "juliet",
                        "kilo",  "lima",  "mike",    "nov",   "oscar"};
  for (int i = 0; i < 80; ++i) {
    std::string text;
    for (int j = 0; j < 7; ++j) {
      if (j > 0) text += ' ';
      text += pool[words.NextBounded(15)];
    }
    corpus.AddText(text, 0.01 * i, 1);
  }
  ForgettingParams params;
  params.half_life_days = 7.0;
  params.life_span_days = 365.0;
  ForgettingModel model(&corpus, params);
  model.AdvanceTo(1.0);
  std::vector<DocId> other_docs(80);
  for (DocId d = 0; d < 80; ++d) other_docs[d] = d;
  model.AddDocuments(other_docs);
  const SimilarityContext other_ctx(model);

  struct Job {
    const SimilarityContext* ctx;
    const std::vector<DocId>* docs;
    ExtendedKMeansOptions options;
  };
  std::vector<Job> jobs(2);
  jobs[0] = {ctx_.get(), &docs_, {}};
  jobs[0].options.k = 3;
  jobs[0].options.seed = 5;
  jobs[1] = {&other_ctx, &other_docs, {}};
  jobs[1].options.k = 6;
  jobs[1].options.seed = 9;
  constexpr int kReps = 16;
  for (const ClusterScoring scoring :
       {ClusterScoring::kMerge, ClusterScoring::kSlotted}) {
    std::vector<ClusteringResult> serial;
    for (Job& job : jobs) {
      job.options.scoring = scoring;
      auto result = RunExtendedKMeans(*job.ctx, *job.docs, job.options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      serial.push_back(std::move(result).value());
    }
    std::vector<std::vector<std::optional<ClusteringResult>>> concurrent(
        jobs.size(), std::vector<std::optional<ClusteringResult>>(kReps));
    std::vector<std::thread> threads;
    for (size_t j = 0; j < jobs.size(); ++j) {
      threads.emplace_back([&, j] {
        for (int r = 0; r < kReps; ++r) {
          auto result =
              RunExtendedKMeans(*jobs[j].ctx, *jobs[j].docs, jobs[j].options);
          if (result.ok()) concurrent[j][r] = std::move(result).value();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t j = 0; j < jobs.size(); ++j) {
      const ClusteringResult& want = serial[j];
      for (int r = 0; r < kReps; ++r) {
        SCOPED_TRACE("job " + std::to_string(j) + ", rep " +
                     std::to_string(r));
        ASSERT_TRUE(concurrent[j][r].has_value());
        const ClusteringResult& got = *concurrent[j][r];
        EXPECT_EQ(got.clusters, want.clusters);
        EXPECT_EQ(got.representatives, want.representatives);
        EXPECT_EQ(got.avg_sims, want.avg_sims);
        EXPECT_EQ(got.cluster_ids, want.cluster_ids);
        EXPECT_EQ(got.next_cluster_id, want.next_cluster_id);
        EXPECT_EQ(got.outliers, want.outliers);
        EXPECT_EQ(got.g, want.g);
        EXPECT_EQ(got.g_history, want.g_history);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);
      }
    }
  }
}

// δ sweep: looser δ converges at least as fast (in iterations).
class DeltaSweepTest : public ExtendedKMeansTest,
                       public testing::WithParamInterface<double> {};

TEST_P(DeltaSweepTest, ConvergesForAllDeltas) {
  ExtendedKMeansOptions opts;
  opts.k = 3;
  opts.delta = GetParam();
  opts.max_iterations = 100;
  auto result = RunExtendedKMeans(*ctx_, docs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
}

// δ = 0 is excluded: the paper's strict "< δ" criterion would then require
// G to decrease, so a fixed point (ΔG = 0) would never terminate.
INSTANTIATE_TEST_SUITE_P(Deltas, DeltaSweepTest,
                         testing::Values(1e-12, 1e-6, 1e-3, 0.05, 0.5));

}  // namespace
}  // namespace nidc
