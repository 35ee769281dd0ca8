// Explaining a step by re-running it from the store (ExplainStep). The
// replayed decisions must equal a live capture of the same step field for
// field — positions, verdict, iteration, scoring path, kernel, and gains
// and margin bit for bit — on every path a replay takes (a generation's
// base step, logged outcomes installed or re-run, a store over a given
// corpus or one that logs its documents, each kernel), while the replay
// writes nothing and may run beside the store's owner.

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_fetch.h"
#include "nidc/core/extended_kmeans.h"
#include "nidc/core/kernels/kernels.h"
#include "nidc/obs/json_util.h"
#include "nidc/serve/introspection.h"
#include "nidc/shard/http.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/service.h"
#include "nidc/store/durable_clusterer.h"
#include "nidc/store/torture.h"
#include "nidc/util/fault_env.h"
#include "temp_path.h"

namespace nidc {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameDecisions(const std::vector<DecisionRecord>& live,
                         const std::vector<DecisionRecord>& replayed) {
  ASSERT_EQ(live.size(), replayed.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const DecisionRecord& a = live[i];
    const DecisionRecord& b = replayed[i];
    SCOPED_TRACE("doc " + std::to_string(a.doc));
    EXPECT_EQ(a.doc, b.doc);
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.path, b.path);
    EXPECT_STREQ(a.kernel, b.kernel);
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.runner_up, b.runner_up);
    EXPECT_EQ(Bits(a.best_gain), Bits(b.best_gain));
    EXPECT_EQ(Bits(a.runner_up_gain), Bits(b.runner_up_gain));
    EXPECT_EQ(Bits(a.margin), Bits(b.margin));
  }
}

// ---------------------------------------------------------------------------
// Path-equivalence property: the margins a run captures must be
// bit-identical across the merge and slotted scoring paths — the same
// guarantee the clustering-equivalence tests prove for the assignments
// themselves, extended to the decision capture.

class ProvenanceEquivalenceTest : public testing::Test {
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

  // Runs the extended K-means with the capture on and returns its
  // decisions keyed by document id.
  std::map<DocId, DecisionRecord> Decisions(ClusterScoring scoring) {
    std::vector<DecisionRecord> decisions;
    ExtendedKMeansOptions opts;
    opts.k = 3;
    opts.seed = 5;
    opts.scoring = scoring;
    opts.decisions = &decisions;
    const Result<ClusteringResult> result =
        RunExtendedKMeans(*ctx_, docs_, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::map<DocId, DecisionRecord> by_doc;
    for (const DecisionRecord& record : decisions) by_doc[record.doc] = record;
    return by_doc;
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
  std::vector<DocId> docs_;
};

TEST_F(ProvenanceEquivalenceTest, MarginsBitIdenticalAcrossScoringPaths) {
  const auto merge = Decisions(ClusterScoring::kMerge);
  const auto slotted = Decisions(ClusterScoring::kSlotted);
  ASSERT_EQ(merge.size(), docs_.size());
  ASSERT_EQ(slotted.size(), docs_.size());
  for (DocId id : docs_) {
    const DecisionRecord& m = merge.at(id);
    const DecisionRecord& s = slotted.at(id);
    EXPECT_EQ(m.path, ClusterScoring::kMerge);
    EXPECT_EQ(s.path, ClusterScoring::kSlotted);
    EXPECT_STREQ(m.kernel, "");
    EXPECT_GT(std::strlen(s.kernel), 0u);
    EXPECT_EQ(m.verdict, s.verdict) << "doc " << id;
    EXPECT_EQ(m.cluster, s.cluster) << "doc " << id;
    EXPECT_EQ(m.runner_up, s.runner_up) << "doc " << id;
    // EXPECT_EQ on doubles is exact comparison — bit-identical gains, not
    // approximately-equal ones.
    EXPECT_EQ(m.best_gain, s.best_gain) << "doc " << id;
    EXPECT_EQ(m.runner_up_gain, s.runner_up_gain) << "doc " << id;
    EXPECT_EQ(m.margin, s.margin) << "doc " << id;
    EXPECT_EQ(m.margin, m.best_gain - m.runner_up_gain);
    EXPECT_GE(m.margin, 0.0);
    if (m.verdict == DecisionVerdict::kAssigned) {
      EXPECT_NE(m.cluster, kUnassigned);
      EXPECT_GT(m.best_gain, 0.0);
    } else if (m.verdict == DecisionVerdict::kOutlier) {
      EXPECT_EQ(m.cluster, kUnassigned);
    }
  }
}

TEST(DecisionJsonTest, OmitsInapplicableFields) {
  DecisionRecord outlier;
  outlier.doc = 42;
  const Result<obs::JsonValue> parsed =
      obs::ParseJson(serve::RenderDecisionJson(3, outlier));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("step")->number, 3.0);
  EXPECT_EQ(parsed->Find("verdict")->string_value, "outlier");
  EXPECT_EQ(parsed->Find("path")->string_value, "merge");
  EXPECT_EQ(parsed->Find("cluster"), nullptr);
  EXPECT_EQ(parsed->Find("runner_up"), nullptr);
  EXPECT_EQ(parsed->Find("kernel"), nullptr);

  DecisionRecord assigned;
  assigned.doc = 7;
  assigned.verdict = DecisionVerdict::kAssigned;
  assigned.path = ClusterScoring::kSlotted;
  assigned.kernel = "avx512";
  assigned.cluster = 2;
  assigned.runner_up = 0;  // position 0 is a cluster, not "none"
  assigned.best_gain = 0.5;
  assigned.runner_up_gain = 0.25;
  assigned.margin = 0.25;
  const Result<obs::JsonValue> full =
      obs::ParseJson(serve::RenderDecisionJson(3, assigned));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->Find("verdict")->string_value, "assigned");
  EXPECT_EQ(full->Find("path")->string_value, "slotted");
  EXPECT_EQ(full->Find("kernel")->string_value, "avx512");
  EXPECT_EQ(full->Find("cluster")->number, 2.0);
  EXPECT_EQ(full->Find("runner_up")->number, 0.0);
  EXPECT_EQ(full->Find("margin")->number, 0.25);
}

// ---------------------------------------------------------------------------
// Replay against live capture.

constexpr uint64_t kCheckpointEvery = 4;
constexpr size_t kSteps = 22;

// Kernels this CPU runs.
std::vector<kernels::Kind> KernelsToTest() {
  std::vector<kernels::Kind> kinds = {kernels::Kind::kScalar};
  if (kernels::Available(kernels::Kind::kAvx512)) {
    kinds.push_back(kernels::Kind::kAvx512);
  }
  return kinds;
}

// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

void RemoveOutcomeLogs(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("outcome-", 0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
}

class ExplainStepTest : public testing::Test {
 protected:
  ExplainStepTest() : default_kernel_(kernels::Active().kind) {}
  ~ExplainStepTest() override { kernels::Select(default_kernel_); }

  static std::string Dir(const std::string& name) {
    const std::string dir = TestTempPath("nidc_explain_" + name);
    std::filesystem::remove_all(dir);
    return dir;
  }

  // Explains every step of `live_` from the store in `dir` under a
  // FaultInjectionEnv. The steps it holds — two generations, so a tail
  // that starts at a generation's base step and spans at least
  // kCheckpointEvery steps — must equal their live capture, and every
  // other step, like one past the WAL, answers NotFound. The replay must
  // perform no mutating operation and leave every byte of `dir` as it was.
  void ExpectReplayEqualsLive(const std::string& dir, const Corpus* corpus,
                              const IncrementalOptions& options) {
    const std::map<std::string, std::string> before = ReadDirectory(dir);
    FaultInjectionEnv env(Env::Default());
    uint64_t first_held = live_.size();
    for (const auto& [step, decisions] : live_) {
      SCOPED_TRACE("step " + std::to_string(step));
      const Result<std::vector<DecisionRecord>> replayed =
          ExplainStep(&env, dir, corpus, params_, options, step);
      if (!replayed.ok()) {
        EXPECT_EQ(replayed.status().code(), StatusCode::kNotFound)
            << replayed.status().ToString();
        EXPECT_EQ(first_held, live_.size()) << "a held step came before";
        continue;
      }
      if (first_held == live_.size()) first_held = step;
      ExpectSameDecisions(decisions, *replayed);
    }
    EXPECT_GT(first_held, 0u);
    EXPECT_EQ(first_held % kCheckpointEvery, 0u);
    EXPECT_GE(live_.size() - first_held, kCheckpointEvery);
    EXPECT_EQ(ExplainStep(&env, dir, corpus, params_, options, live_.size())
                  .status()
                  .code(),
              StatusCode::kNotFound);
    EXPECT_EQ(env.ops_issued(), 0u);
    EXPECT_EQ(ReadDirectory(dir), before);
  }

  // Steps `store` and keeps the decisions the live step captured.
  void StepAndCapture(DurableClusterer* store,
                      const std::vector<DocId>& batch, DayTime tau) {
    const Result<StepResult> result = store->Step(batch, tau);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_FALSE(result->installed);
    live_[store->applied_steps() - 1] = capture_;
  }

  ForgettingParams params_{/*half_life=*/2.0, /*life_span=*/6.0};
  std::vector<DecisionRecord> capture_;
  std::map<uint64_t, std::vector<DecisionRecord>> live_;
  kernels::Kind default_kernel_;
};

// A store over a corpus it does not log, as `nidc_cli stream
// --checkpoint-dir` keeps: the replay reads that corpus.
TEST_F(ExplainStepTest, StoreOverAGivenCorpusReplaysItsLiveDecisions) {
  for (kernels::Kind kind : KernelsToTest()) {
    SCOPED_TRACE(kernels::KindName(kind));
    kernels::Select(kind);
    live_.clear();
    TortureOptions shape;
    shape.num_steps = kSteps;
    shape.params = params_;
    const TortureStream stream = BuildTortureStream(shape);
    IncrementalOptions options;
    options.kmeans.k = shape.k;
    options.kmeans.decisions = &capture_;
    DurableOptions durable;
    durable.dir = Dir("given_corpus");
    durable.checkpoint_every = kCheckpointEvery;
    auto store = DurableClusterer::Open(stream.corpus.get(), params_,
                                        options, durable);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < stream.batches.size(); ++i) {
      StepAndCapture(store->get(), stream.batches[i], stream.taus[i]);
    }
    // With logged outcomes the predecessors install theirs; without, they
    // re-run.
    ExpectReplayEqualsLive(durable.dir, stream.corpus.get(), options);
    RemoveOutcomeLogs(durable.dir);
    ExpectReplayEqualsLive(durable.dir, stream.corpus.get(), options);
  }
}

// A store that logs its documents, as a tenant's does, and a corpus that
// releases every document no step can name again: the replay installs the
// snapshot's window and the WAL's corpus records into a scratch corpus.
TEST_F(ExplainStepTest, StoreThatLogsItsCorpusReplaysItsLiveDecisions) {
  static const char* const kTopics[3][5] = {
      {"iraq", "weapons", "baghdad", "inspection", "sanctions"},
      {"olympics", "skating", "nagano", "medal", "hockey"},
      {"tobacco", "settlement", "senate", "lawsuit", "vote"}};
  for (kernels::Kind kind : KernelsToTest()) {
    SCOPED_TRACE(kernels::KindName(kind));
    kernels::Select(kind);
    live_.clear();
    Corpus corpus;
    IncrementalOptions options;
    options.kmeans.k = 3;
    options.kmeans.decisions = &capture_;
    DurableOptions durable;
    durable.dir = Dir("logged_corpus");
    durable.checkpoint_every = kCheckpointEvery;
    auto store = DurableClusterer::Open(&corpus, params_, options, durable);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t step = 0; step < kSteps; ++step) {
      std::vector<DocId> batch;
      for (size_t j = 0; j < 4; ++j) {
        const size_t topic = (step + j) % 3;
        std::string text = "day" + std::to_string(step);
        for (size_t w = 0; w < 3; ++w) {
          text += std::string(" ") + kTopics[topic][(step * 7 + j * 3 + w) % 5];
        }
        batch.push_back(corpus.AddText(
            text, static_cast<double>(step) + 0.2 * static_cast<double>(j),
            static_cast<TopicId>(topic)));
      }
      ASSERT_TRUE((*store)->LogCorpus().ok());
      StepAndCapture(store->get(), batch, static_cast<double>(step) + 1.0);
      const std::vector<DocId>& active =
          (*store)->clusterer().model().active_docs();
      corpus.ReleaseBefore(*std::min_element(active.begin(), active.end()));
    }
    ASSERT_GT(corpus.first_retained(), 0u);
    ExpectReplayEqualsLive(durable.dir, /*corpus=*/nullptr, options);
    RemoveOutcomeLogs(durable.dir);
    ExpectReplayEqualsLive(durable.dir, /*corpus=*/nullptr, options);
  }
}

// The self-check: under options other than the store was written with,
// the re-run differs from the logged outcome and the explanation fails.
TEST_F(ExplainStepTest, AStoreReadUnderAnotherKFailsTheSelfCheck) {
  TortureOptions shape;
  shape.num_steps = 6;
  shape.params = params_;
  const TortureStream stream = BuildTortureStream(shape);
  IncrementalOptions options;
  options.kmeans.k = shape.k;
  DurableOptions durable;
  durable.dir = Dir("self_check");
  auto store =
      DurableClusterer::Open(stream.corpus.get(), params_, options, durable);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (size_t i = 0; i < stream.batches.size(); ++i) {
    ASSERT_TRUE((*store)->Step(stream.batches[i], stream.taus[i]).ok());
  }
  const uint64_t last = (*store)->applied_steps() - 1;
  ASSERT_TRUE(ExplainStep(Env::Default(), durable.dir, stream.corpus.get(),
                          params_, options, last)
                  .ok());
  options.kmeans.k = shape.k + 1;
  const Result<std::vector<DecisionRecord>> other_k =
      ExplainStep(Env::Default(), durable.dir, stream.corpus.get(), params_,
                  options, last);
  EXPECT_EQ(other_k.status().code(), StatusCode::kFailedPrecondition)
      << other_k.status().ToString();
}

// Under kNone the WAL's tail stays in the writer's buffer, out of a
// reader's sight, until the owner flushes it.
TEST_F(ExplainStepTest, FlushShowsAnUnsyncedTailToTheReplay) {
  TortureOptions shape;
  shape.num_steps = 6;
  shape.params = params_;
  const TortureStream stream = BuildTortureStream(shape);
  IncrementalOptions options;
  options.kmeans.k = shape.k;
  DurableOptions durable;
  durable.dir = Dir("unsynced");
  durable.wal_sync = WalSyncMode::kNone;
  auto store =
      DurableClusterer::Open(stream.corpus.get(), params_, options, durable);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (size_t i = 0; i < stream.batches.size(); ++i) {
    ASSERT_TRUE((*store)->Step(stream.batches[i], stream.taus[i]).ok());
  }
  const uint64_t last = (*store)->applied_steps() - 1;
  EXPECT_EQ(ExplainStep(Env::Default(), durable.dir, stream.corpus.get(),
                        params_, options, last)
                .status()
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_TRUE(ExplainStep(Env::Default(), durable.dir, stream.corpus.get(),
                          params_, options, last)
                  .ok());
}

// ---------------------------------------------------------------------------
// A tenant explained from HTTP workers while its owner ingests and
// rotates every second step: every answer is a 200 or, for a step pruned
// or not yet written, a 404.

TEST(ExplainConcurrencyTest, HttpWorkersExplainWhileTheOwnerIngests) {
  const std::string root = TestTempPath("nidc_explain_concurrent");
  std::filesystem::remove_all(root);
  obs::MetricsRegistry registry;
  shard::ShardServiceOptions options;
  options.root = root;
  options.num_shards = 1;
  options.checkpoint_every = 2;
  options.metrics = &registry;
  auto service = shard::ShardService::Start(std::move(options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  shard::TenantConfig config;
  config.params.half_life_days = 2.0;
  config.params.life_span_days = 6.0;
  config.k = 3;
  serve::HttpServer server(&registry);
  shard::RegisterShardHandlers(&server, service->get(), config);
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();
  ASSERT_EQ(Post(port, "/tenantz?op=create&tenant=alpha").status, 200);

  constexpr int kDays = 24;
  std::atomic<bool> done{false};
  std::atomic<int> explained{0};
  std::mutex mu;
  std::vector<std::string> unexpected;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; !done.load(); ++i) {
        // One reader takes the board's last step, the other walks steps.
        const std::string target =
            r == 0 ? "/explainz?tenant=alpha"
                   : "/explainz?tenant=alpha&step=" + std::to_string(i % kDays);
        const FetchResult result = Fetch(port, target);
        if (result.status == 200) {
          ++explained;
        } else if (result.status != 404) {
          std::lock_guard<std::mutex> lock(mu);
          unexpected.push_back(target + " -> " +
                               std::to_string(result.status) + " " +
                               result.body);
        }
      }
    });
  }
  for (int day = 0; day < kDays; ++day) {
    std::vector<RawDocument> docs(4);
    for (size_t j = 0; j < docs.size(); ++j) {
      docs[j].time = day + 0.2 * static_cast<double>(j);
      docs[j].text = "shared day" + std::to_string(day) + " topic" +
                     std::to_string((day + j) % 3) + " word" +
                     std::to_string(j);
    }
    EXPECT_EQ(Post(port, "/ingest?tenant=alpha", shard::FormatIngestJsonl(docs))
                  .status,
              202);
  }
  ASSERT_EQ(
      Post(port, "/tenantz?op=flush&tenant=alpha&until=" +
                     std::to_string(kDays))
          .status,
      200);
  done = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_TRUE(unexpected.empty()) << unexpected.front();
  // With the owner idle, its last step is held.
  const FetchResult last = Fetch(port, "/explainz?tenant=alpha");
  EXPECT_EQ(last.status, 200) << last.body;
  EXPECT_NE(last.body.find("\"verdict\":"), std::string::npos);
  EXPECT_GT(explained.load(), 0);
  server.Stop();
  (*service)->Stop();
}

}  // namespace
}  // namespace nidc
