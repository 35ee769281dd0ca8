#include "nidc/shard/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "nidc/obs/reqtrace.h"
#include "nidc/shard/ingest.h"
#include "nidc/shard/tenant.h"
#include "nidc/util/fault_env.h"
#include "temp_path.h"

namespace nidc::shard {
namespace {

TenantConfig SmallConfig() {
  TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = 3;
  config.step_days = 1.0;
  config.start_time = 0.0;
  config.seed = 42;
  return config;
}

// A deterministic little feed: `days` windows, `per_day` docs each, with
// per-tenant distinct vocabulary so different tenants cluster differently.
std::vector<RawDocument> MakeFeed(const std::string& salt, int days,
                                  int per_day) {
  std::vector<RawDocument> docs;
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < per_day; ++i) {
      RawDocument doc;
      doc.time = d + 0.1 + 0.8 * i / per_day;
      doc.topic = i % 3;
      doc.text = salt + "term" + std::to_string(i % 5) + " " + salt +
                 "word" + std::to_string((i + d) % 7) + " shared common " +
                 salt + "tail" + std::to_string(i % 2);
      docs.push_back(std::move(doc));
    }
  }
  // The wire codec round trip every real client's documents go through.
  auto parsed = ParseIngestJsonl(FormatIngestJsonl(docs));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

std::vector<std::vector<RawDocument>> InBatches(
    const std::vector<RawDocument>& docs, size_t batch_docs) {
  std::vector<std::vector<RawDocument>> batches;
  for (size_t off = 0; off < docs.size(); off += batch_docs) {
    const size_t n = std::min(batch_docs, docs.size() - off);
    batches.emplace_back(docs.begin() + off, docs.begin() + off + n);
  }
  return batches;
}

// What the service must reproduce: the same feed through a standalone
// Tenant, no service, no queues, no shard threads.
std::string ReferenceDigest(const std::string& dir,
                            const TenantConfig& config,
                            const std::vector<RawDocument>& docs,
                            DayTime flush_until) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TenantRuntime runtime;
  auto tenant = Tenant::Create("reference", dir, config, runtime);
  EXPECT_TRUE(tenant.ok()) << tenant.status().ToString();
  for (const auto& batch : InBatches(docs, 16)) {
    EXPECT_TRUE((*tenant)->Ingest(batch).ok());
  }
  EXPECT_TRUE((*tenant)->FlushUntil(flush_until).ok());
  return (*tenant)->StateDigest();
}

class ShardServiceTest : public testing::Test {
 protected:
  std::string Root(const std::string& name) {
    const std::string root = TestTempPath("nidc_shard_service_" + name);
    std::filesystem::remove_all(root);
    return root;
  }

  static Result<std::unique_ptr<ShardService>> TryStart(
      const std::string& root, size_t shards, size_t queue_capacity = 64,
      obs::RequestTracer* tracer = nullptr) {
    ShardServiceOptions options;
    options.root = root;
    options.num_shards = shards;
    options.queue_capacity = queue_capacity;
    options.tracer = tracer;
    return ShardService::Start(std::move(options));
  }

  std::unique_ptr<ShardService> StartService(
      const std::string& root, size_t shards, size_t queue_capacity = 64,
      obs::RequestTracer* tracer = nullptr) {
    auto service = TryStart(root, shards, queue_capacity, tracer);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  // A crash image of `names` at `image`: every tenant ingests its own
  // feed, ending inside an open window, and the directories are copied
  // after a drain but before any Close — WAL tails open, no final
  // checkpoint, unstepped documents in corpus.tsv.
  void MakeCrashImage(const std::string& image,
                      const std::vector<std::string>& names) {
    const std::string root = image + "_live";
    std::filesystem::remove_all(root);
    auto service = StartService(root, 3);
    for (const std::string& name : names) {
      ASSERT_TRUE(service->CreateTenant(name, SmallConfig()).ok());
      for (const auto& batch : InBatches(MakeFeed(name, 5, 6), 8)) {
        ASSERT_TRUE(service->EnqueueIngest(name, batch).ok());
      }
    }
    service->Drain();
    std::filesystem::remove_all(image);
    std::filesystem::copy(root, image,
                          std::filesystem::copy_options::recursive);
    service->Stop();
  }

  // A fresh copy of `image`, so every reopen starts from the same bytes.
  static std::string CopyOf(const std::string& image,
                            const std::string& suffix) {
    const std::string copy = image + "_" + suffix;
    std::filesystem::remove_all(copy);
    std::filesystem::copy(image, copy,
                          std::filesystem::copy_options::recursive);
    return copy;
  }

  // What the parallel reopen must reproduce: a standalone Tenant::Open of
  // the tenant's directory in a private copy of `image`.
  static std::string StandaloneDigest(const std::string& image,
                                      const std::string& name) {
    const std::string copy = CopyOf(image, "standalone_" + name);
    auto tenant =
        Tenant::Open(name, copy + "/tenants/" + name, TenantRuntime());
    EXPECT_TRUE(tenant.ok()) << name << ": " << tenant.status().ToString();
    return tenant.ok() ? (*tenant)->StateDigest() : std::string();
  }

  static Status StandaloneOpenStatus(const std::string& root,
                                     const std::string& name) {
    return Tenant::Open(name, root + "/tenants/" + name, TenantRuntime())
        .status();
  }
};

TEST_F(ShardServiceTest, ValidatesTenantNames) {
  EXPECT_TRUE(ShardService::ValidateTenantName("news-feed_01.a").ok());
  EXPECT_FALSE(ShardService::ValidateTenantName("").ok());
  EXPECT_FALSE(ShardService::ValidateTenantName(".hidden").ok());
  EXPECT_FALSE(ShardService::ValidateTenantName("has/slash").ok());
  EXPECT_FALSE(ShardService::ValidateTenantName("has space").ok());
  EXPECT_FALSE(ShardService::ValidateTenantName(std::string(65, 'a')).ok());
}

TEST_F(ShardServiceTest, ShardAssignmentIsStable) {
  auto service = StartService(Root("stable"), 4);
  // FNV-1a is fixed; these pins fail if the hash ever changes, which
  // would reshuffle every deployment's tenant->shard map on restart.
  EXPECT_EQ(service->ShardOf("alpha"), service->ShardOf("alpha"));
  EXPECT_LT(service->ShardOf("alpha"), 4u);
  service->Stop();
}

TEST_F(ShardServiceTest, CreateIngestFlushMatchesReference) {
  const std::string root = Root("basic");
  const auto feed = MakeFeed("basic", 5, 8);
  const DayTime flush_until = 6.0;
  const std::string expected = ReferenceDigest(
      root + "_ref", SmallConfig(), feed, flush_until);

  auto service = StartService(root, 2);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  for (const auto& batch : InBatches(feed, 16)) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
  }
  ASSERT_TRUE(service->Flush("alpha", flush_until).ok());
  auto digest = service->StateDigest("alpha");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, expected);

  const auto infos = service->Tenants();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "alpha");
  EXPECT_EQ(infos[0].docs_ingested, feed.size());
  EXPECT_FALSE(infos[0].failed);
  EXPECT_DOUBLE_EQ(infos[0].now, flush_until);
  service->Stop();
}

TEST_F(ShardServiceTest, DuplicateCreateAndUnknownTenantAreRejected) {
  auto service = StartService(Root("dup"), 1);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  EXPECT_EQ(service->CreateTenant("alpha", SmallConfig()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service->EnqueueIngest("ghost", {}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->Flush("ghost", 1.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(service->StateDigest("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service->EvictTenant("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(service->CreateTenant("bad name", SmallConfig()).code(),
            StatusCode::kInvalidArgument);
  service->Stop();
}

TEST_F(ShardServiceTest, EvictThenReopenRestoresIdenticalState) {
  const std::string root = Root("evict");
  const auto feed = MakeFeed("evict", 4, 6);
  auto service = StartService(root, 2);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  for (const auto& batch : InBatches(feed, 8)) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
  }
  ASSERT_TRUE(service->Flush("alpha", 5.0).ok());
  auto before = service->StateDigest("alpha");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  EXPECT_EQ(service->StateDigest("alpha").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service->TenantNames().empty());

  // The directory survived; reopening recovers bit-identical state.
  ASSERT_TRUE(service->OpenTenant("alpha").ok());
  auto after = service->StateDigest("alpha");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // And the reopened tenant keeps ingesting where the feed left off.
  RawDocument more;
  more.time = 6.5;
  more.text = "evictterm0 late arrival common";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {more}).ok());
  service->Drain();
  EXPECT_EQ(service->GetTenant("alpha")->docs_ingested(), feed.size() + 1);
  service->Stop();
}

TEST_F(ShardServiceTest, RetainedDocsGaugeSumsTheOpenTenants) {
  auto service = StartService(Root("retained"), 2);
  obs::Gauge* retained =
      service->metrics()->GetGauge("shard.corpus.retained_docs");
  // Registered at Start, before any tenant.
  bool registered = false;
  for (const obs::MetricSample& sample : service->metrics()->Snapshot()) {
    registered |= sample.name == "shard.corpus.retained_docs";
  }
  EXPECT_TRUE(registered);
  EXPECT_EQ(retained->Value(), 0.0);

  // A 4-day life span over a 12-day feed: most documents expire.
  TenantConfig config = SmallConfig();
  config.params.half_life_days = 2.0;
  config.params.life_span_days = 4.0;
  size_t fed = 0;
  for (const std::string name : {"alpha", "bravo"}) {
    ASSERT_TRUE(service->CreateTenant(name, config).ok());
    const auto feed = MakeFeed(name, 12, 5);
    fed += feed.size();
    for (const auto& batch : InBatches(feed, 8)) {
      ASSERT_TRUE(service->EnqueueIngest(name, batch).ok());
    }
    ASSERT_TRUE(service->Flush(name, 12.0).ok());
  }
  service->Drain();
  const auto held = [&](const std::string& name) {
    return service->GetTenant(name)
        ->metrics()
        .GetGauge("shard.tenant.corpus_retained_docs")
        ->Value();
  };
  const double alpha = held("alpha");
  EXPECT_GT(alpha, 0.0);
  EXPECT_EQ(retained->Value(), alpha + held("bravo"));
  EXPECT_LT(retained->Value(), static_cast<double>(fed) / 2);

  // An evicted tenant holds nothing; its reopen releases what it did.
  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  EXPECT_EQ(retained->Value(), held("bravo"));
  ASSERT_TRUE(service->OpenTenant("alpha").ok());
  EXPECT_EQ(held("alpha"), alpha);
  EXPECT_EQ(retained->Value(), alpha + held("bravo"));
  service->Stop();
}

TEST_F(ShardServiceTest, RetainedTermEntriesGaugeCountsTheHeldTermVectors) {
  auto service = StartService(Root("entries"), 2);
  obs::Gauge* entries =
      service->metrics()->GetGauge("shard.corpus.retained_term_entries");
  bool registered = false;
  for (const obs::MetricSample& sample : service->metrics()->Snapshot()) {
    registered |= sample.name == "shard.corpus.retained_term_entries";
  }
  EXPECT_TRUE(registered);
  EXPECT_EQ(entries->Value(), 0.0);

  TenantConfig config = SmallConfig();
  config.params.half_life_days = 2.0;
  config.params.life_span_days = 4.0;
  const auto held = [&](const std::string& name) {
    return service->GetTenant(name)
        ->metrics()
        .GetGauge("shard.tenant.corpus_retained_term_entries")
        ->Value();
  };
  // Σ terms.size() over the tenant's retained documents, by a scan.
  const auto scanned = [&](const std::string& name) {
    size_t total = 0;
    for (const Document& doc : service->GetTenant(name)->corpus().docs()) {
      total += doc.terms.size();
    }
    return static_cast<double>(total);
  };
  const auto feed = MakeFeed("entries", 12, 5);
  const auto batches = InBatches(feed, 5);
  ASSERT_TRUE(service->CreateTenant("alpha", config).ok());
  ASSERT_TRUE(service->CreateTenant("bravo", config).ok());
  ASSERT_TRUE(service->EnqueueIngest("bravo", batches[0]).ok());

  // Before any release: alpha holds every document it was sent.
  ASSERT_TRUE(service->EnqueueIngest("alpha", batches[0]).ok());
  ASSERT_TRUE(service->EnqueueIngest("alpha", batches[1]).ok());
  service->Drain();
  const Corpus& alpha = service->GetTenant("alpha")->corpus();
  EXPECT_EQ(alpha.first_retained(), 0u);
  EXPECT_GT(held("alpha"), 0.0);
  EXPECT_EQ(held("alpha"), scanned("alpha"));
  EXPECT_EQ(entries->Value(), held("alpha") + held("bravo"));

  // After the 4-day life span has released most of alpha's feed.
  const double early = held("alpha");
  for (size_t b = 2; b < batches.size(); ++b) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batches[b]).ok());
  }
  ASSERT_TRUE(service->Flush("alpha", 12.0).ok());
  service->Drain();
  EXPECT_GT(alpha.first_retained(), 0u);
  EXPECT_EQ(held("alpha"), scanned("alpha"));
  EXPECT_LT(held("alpha"), early * batches.size() / 2);
  EXPECT_EQ(held("bravo"), scanned("bravo"));
  EXPECT_EQ(entries->Value(), held("alpha") + held("bravo"));

  // An evicted tenant holds nothing.
  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  EXPECT_EQ(entries->Value(), held("bravo"));
  service->Stop();
}

TEST_F(ShardServiceTest, VocabularyGaugesCountTheTenantsTermsAndBytes) {
  auto service = StartService(Root("vocabulary"), 2);
  obs::Gauge* terms =
      service->metrics()->GetGauge("shard.corpus.vocabulary_terms");
  obs::Gauge* bytes =
      service->metrics()->GetGauge("shard.corpus.vocabulary_bytes");
  size_t registered = 0;
  for (const obs::MetricSample& sample : service->metrics()->Snapshot()) {
    registered += sample.name == "shard.corpus.vocabulary_terms" ||
                  sample.name == "shard.corpus.vocabulary_bytes";
  }
  EXPECT_EQ(registered, 2u);
  EXPECT_EQ(terms->Value(), 0.0);
  EXPECT_EQ(bytes->Value(), 0.0);

  const auto gauge = [&](const std::string& name, const char* which) {
    return service->GetTenant(name)
        ->metrics()
        .GetGauge(std::string("shard.tenant.corpus_vocabulary_") + which)
        ->Value();
  };
  const auto vocabulary = [&](const std::string& name) -> const Vocabulary& {
    return service->GetTenant(name)->corpus().vocabulary();
  };
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  ASSERT_TRUE(service->CreateTenant("bravo", SmallConfig()).ok());
  for (const auto& batch : InBatches(MakeFeed("alpha", 6, 5), 5)) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
  }
  ASSERT_TRUE(
      service->EnqueueIngest("bravo", InBatches(MakeFeed("b", 1, 5), 5)[0])
          .ok());
  service->Drain();
  for (const std::string name : {"alpha", "bravo"}) {
    EXPECT_GT(gauge(name, "terms"), 0.0) << name;
    EXPECT_EQ(gauge(name, "terms"),
              static_cast<double>(vocabulary(name).size()))
        << name;
    EXPECT_EQ(gauge(name, "bytes"),
              static_cast<double>(vocabulary(name).bytes()))
        << name;
  }
  EXPECT_GT(gauge("alpha", "terms"), gauge("bravo", "terms"));
  EXPECT_EQ(terms->Value(), gauge("alpha", "terms") + gauge("bravo", "terms"));
  EXPECT_EQ(bytes->Value(), gauge("alpha", "bytes") + gauge("bravo", "bytes"));

  // An evicted tenant holds nothing; its reopen restores every term.
  const double alpha_terms = gauge("alpha", "terms");
  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  EXPECT_EQ(terms->Value(), gauge("bravo", "terms"));
  EXPECT_EQ(bytes->Value(), gauge("bravo", "bytes"));
  ASSERT_TRUE(service->OpenTenant("alpha").ok());
  EXPECT_EQ(gauge("alpha", "terms"), alpha_terms);
  EXPECT_EQ(terms->Value(), alpha_terms + gauge("bravo", "terms"));
  EXPECT_EQ(bytes->Value(), gauge("alpha", "bytes") + gauge("bravo", "bytes"));
  service->Stop();
}

TEST_F(ShardServiceTest, RetainedBytesGaugeIsTheCorpusArena) {
  auto service = StartService(Root("retained_bytes"), 2);
  obs::Gauge* bytes =
      service->metrics()->GetGauge("shard.corpus.retained_bytes");
  bool registered = false;
  for (const obs::MetricSample& sample : service->metrics()->Snapshot()) {
    registered |= sample.name == "shard.corpus.retained_bytes";
  }
  EXPECT_TRUE(registered);
  EXPECT_EQ(bytes->Value(), 0.0);

  const auto held = [&](const std::string& name) {
    return service->GetTenant(name)
        ->metrics()
        .GetGauge("shard.tenant.corpus_retained_bytes")
        ->Value();
  };
  const auto arena = [&](const std::string& name) {
    return static_cast<double>(service->GetTenant(name)->corpus().bytes());
  };
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  ASSERT_TRUE(service->CreateTenant("bravo", SmallConfig()).ok());
  for (const auto& batch : InBatches(MakeFeed("alpha", 6, 5), 5)) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
  }
  ASSERT_TRUE(
      service->EnqueueIngest("bravo", InBatches(MakeFeed("b", 1, 5), 5)[0])
          .ok());
  service->Drain();
  for (const std::string name : {"alpha", "bravo"}) {
    EXPECT_GT(held(name), 0.0) << name;
    EXPECT_EQ(held(name), arena(name)) << name;
  }
  EXPECT_EQ(bytes->Value(), held("alpha") + held("bravo"));

  // An evicted tenant holds nothing.
  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  EXPECT_EQ(bytes->Value(), held("bravo"));
  service->Stop();
}

TEST_F(ShardServiceTest, RestartRecoversEveryTenantOntoItsShard) {
  const std::string root = Root("restart");
  const std::vector<std::string> names = {"alpha", "bravo", "charlie"};
  std::vector<std::string> digests;
  {
    auto service = StartService(root, 3);
    for (const auto& name : names) {
      ASSERT_TRUE(service->CreateTenant(name, SmallConfig()).ok());
      for (const auto& batch : InBatches(MakeFeed(name, 3, 5), 8)) {
        ASSERT_TRUE(service->EnqueueIngest(name, batch).ok());
      }
      ASSERT_TRUE(service->Flush(name, 4.0).ok());
      auto digest = service->StateDigest(name);
      ASSERT_TRUE(digest.ok());
      digests.push_back(*digest);
    }
    service->Stop();  // clean shutdown: final checkpoints
  }
  auto service = StartService(root, 3);
  EXPECT_EQ(service->TenantNames(), names);
  for (size_t i = 0; i < names.size(); ++i) {
    auto digest = service->StateDigest(names[i]);
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(*digest, digests[i]) << names[i];
    EXPECT_EQ(service->GetTenant(names[i])->name(), names[i]);
  }
  service->Stop();
}

TEST_F(ShardServiceTest, CreateTenantSurvivesACrashAtEveryKillPoint) {
  // Kill the service at each mutating filesystem op of CreateTenant under
  // every crash-flush policy. The restarted service must come up with the
  // tenant either absent — a re-create then succeeds over the leftovers —
  // or open and empty; either way the feed reaches the uninterrupted
  // run's state.
  const auto feed = MakeFeed("born", 4, 5);
  const DayTime flush_until = 5.0;
  const std::string want =
      ReferenceDigest(Root("create_kill_ref"), SmallConfig(), feed,
                      flush_until);
  std::string empty;
  {
    const std::string dir = Root("create_kill_empty");
    std::filesystem::create_directories(dir);
    auto tenant =
        Tenant::Create("empty", dir, SmallConfig(), TenantRuntime());
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    empty = (*tenant)->StateDigest();
  }

  constexpr CrashFlush kPolicies[] = {CrashFlush::kDropUnsynced,
                                      CrashFlush::kKeepUnsynced,
                                      CrashFlush::kTornWrite};
  size_t absent = 0;
  size_t opened = 0;
  bool crashed = true;
  for (uint64_t kill = 1; crashed; ++kill) {
    ASSERT_LT(kill, 100u) << "kill sweep did not terminate";
    for (const CrashFlush flush : kPolicies) {
      SCOPED_TRACE("kill point " + std::to_string(kill) + ", flush mode " +
                   std::to_string(static_cast<int>(flush)));
      const std::string root = Root("create_kill");
      {
        FaultInjectionEnv fault_env(Env::Default());
        ShardServiceOptions options;
        options.root = root;
        options.num_shards = 1;
        options.env = &fault_env;
        auto doomed = ShardService::Start(std::move(options));
        ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
        fault_env.ArmCrashAtOp(kill, flush);
        const Status created = (*doomed)->CreateTenant("born", SmallConfig());
        crashed = fault_env.crashed();
        EXPECT_EQ(created.ok(), !crashed) << created.ToString();
        fault_env.Disarm();
        (*doomed)->Stop();
      }
      if (!crashed) break;  // CreateTenant ran out of ops to kill
      // TENANT.json commits the tenant, so whatever it needs came first.
      const std::string dir = root + "/tenants/born";
      if (std::filesystem::exists(dir + "/TENANT.json")) {
        EXPECT_TRUE(std::filesystem::exists(dir + "/corpus.tsv"));
        EXPECT_TRUE(std::filesystem::exists(dir + "/store/wal-000001"));
      }

      auto service = TryStart(root, 1);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      if ((*service)->TenantNames().empty()) {
        ++absent;
        ASSERT_TRUE((*service)->CreateTenant("born", SmallConfig()).ok());
      } else {
        ++opened;
        ASSERT_EQ((*service)->TenantNames(),
                  std::vector<std::string>{"born"});
        EXPECT_EQ((*service)->GetTenant("born")->docs_ingested(), 0u);
        auto digest = (*service)->StateDigest("born");
        ASSERT_TRUE(digest.ok());
        EXPECT_EQ(*digest, empty);
      }
      for (const auto& batch : InBatches(feed, 16)) {
        ASSERT_TRUE((*service)->EnqueueIngest("born", batch).ok());
      }
      ASSERT_TRUE((*service)->Flush("born", flush_until).ok());
      auto digest = (*service)->StateDigest("born");
      ASSERT_TRUE(digest.ok());
      EXPECT_EQ(*digest, want);
      (*service)->Stop();
    }
  }
  EXPECT_GT(absent, 0u);
  EXPECT_GT(opened, 0u);
}

TEST_F(ShardServiceTest, CrashImageRecoversToTheSameState) {
  const std::string root = Root("crash");
  const std::string image = root + "_image";
  const auto feed = MakeFeed("crash", 4, 6);
  std::vector<std::string> digests(2);
  {
    auto service = StartService(root, 2);
    ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
    ASSERT_TRUE(service->CreateTenant("bravo", SmallConfig()).ok());
    for (const auto& batch : InBatches(feed, 8)) {
      ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
      ASSERT_TRUE(service->EnqueueIngest("bravo", batch).ok());
    }
    service->Drain();  // applied + WAL-durable, but NOT cleanly closed
    auto alpha = service->StateDigest("alpha");
    auto bravo = service->StateDigest("bravo");
    ASSERT_TRUE(alpha.ok() && bravo.ok());
    digests[0] = *alpha;
    digests[1] = *bravo;
    // A crash image: the tenant directories exactly as a kill -9 would
    // leave them — open WAL tail, no final checkpoint, no Close.
    std::filesystem::remove_all(image);
    std::filesystem::copy(root, image,
                          std::filesystem::copy_options::recursive);
    service->Stop();
  }
  auto service = StartService(image, 2);
  EXPECT_EQ(service->TenantNames(),
            (std::vector<std::string>{"alpha", "bravo"}));
  auto alpha = service->StateDigest("alpha");
  auto bravo = service->StateDigest("bravo");
  ASSERT_TRUE(alpha.ok() && bravo.ok());
  EXPECT_EQ(*alpha, digests[0]);
  EXPECT_EQ(*bravo, digests[1]);
  service->Stop();
}

TEST_F(ShardServiceTest, ParallelRecoveryMatchesStandaloneOpen) {
  // Startup recovery runs on the shard workers, every shard reopening its
  // own tenants at once. Each tenant must come back bit-identical to a
  // standalone Tenant::Open of its directory, on the shard its name maps
  // to, whatever the shard count.
  const std::string image = Root("parallel_recovery");
  const std::vector<std::string> names = {"alpha", "bravo", "charlie",
                                          "delta", "echo",  "foxtrot",
                                          "golf"};
  MakeCrashImage(image, names);
  std::vector<std::string> expected;
  for (const std::string& name : names) {
    expected.push_back(StandaloneDigest(image, name));
    ASSERT_FALSE(expected.back().empty());
  }

  for (const size_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto service =
        StartService(CopyOf(image, std::to_string(shards)), shards);
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->TenantNames(), names);
    EXPECT_EQ(service->recovered_tenants(), names.size());
    EXPECT_GT(service->recovery_seconds(), 0.0);
    EXPECT_EQ(service->metrics()->GetCounter("shard.recovery.tenants")
                  ->Value(),
              names.size());
    EXPECT_EQ(service->metrics()->GetGauge("shard.recovery.seconds")
                  ->Value(),
              service->recovery_seconds());
    for (const TenantInfo& info : service->Tenants()) {
      EXPECT_EQ(info.shard, service->ShardOf(info.name)) << info.name;
    }
    for (size_t i = 0; i < names.size(); ++i) {
      auto digest = service->StateDigest(names[i]);
      ASSERT_TRUE(digest.ok()) << names[i];
      EXPECT_EQ(*digest, expected[i]) << names[i];
    }
    service->Stop();
  }
}

TEST_F(ShardServiceTest, FailedRecoveryReportsLowestNamedTenant) {
  // A corrupt TENANT.json fails Start with that tenant's own error, and
  // the service tears down without hanging. With two bad tenants on
  // different shards the lower-named one's error wins, whichever shard
  // finishes first. Once the bad directories are gone, the rest reopen
  // bit-identically.
  const std::string image = Root("failed_recovery");
  const std::vector<std::string> names = {"alpha", "bravo", "charlie",
                                          "delta", "echo",  "foxtrot"};
  MakeCrashImage(image, names);
  std::vector<std::string> expected;
  for (const std::string& name : names) {
    expected.push_back(StandaloneDigest(image, name));
  }

  for (const size_t shards : {2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const std::string root = CopyOf(image, std::to_string(shards));
    // Pick the bad tenants by their shard: the highest name, then the
    // highest name below it that lives on another shard.
    const std::string high = names.back();
    std::string low;
    {
      auto probe = StartService(Root("probe"), shards);
      for (const std::string& name : names) {
        if (name < high &&
            probe->ShardOf(name) != probe->ShardOf(high)) {
          low = name;
        }
      }
      probe->Stop();
    }
    ASSERT_FALSE(low.empty());
    auto corrupt = [&root](const std::string& name,
                           const std::string& text) {
      ASSERT_TRUE(
          AtomicWriteFile(Env::Default(),
                          root + "/tenants/" + name + "/TENANT.json", text)
              .ok());
    };

    corrupt(high, "{not json");
    const Status high_error = StandaloneOpenStatus(root, high);
    ASSERT_FALSE(high_error.ok());
    auto failed = TryStart(root, shards);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status(), high_error);

    corrupt(low, "{\"k\": 3}");
    const Status low_error = StandaloneOpenStatus(root, low);
    ASSERT_FALSE(low_error.ok());
    ASSERT_NE(low_error, high_error);
    for (int attempt = 0; attempt < 3; ++attempt) {
      failed = TryStart(root, shards);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status(), low_error) << "attempt " << attempt;
    }

    std::filesystem::remove_all(root + "/tenants/" + high);
    std::filesystem::remove_all(root + "/tenants/" + low);
    auto service = StartService(root, shards);
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->recovered_tenants(), names.size() - 2);
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == high || names[i] == low) continue;
      auto digest = service->StateDigest(names[i]);
      ASSERT_TRUE(digest.ok()) << names[i];
      EXPECT_EQ(*digest, expected[i]) << names[i];
    }
    service->Stop();
  }
}

TEST_F(ShardServiceTest, StartRefusesATenantInTheOldLayout) {
  // A TENANT.json without the layout key is a tenant whose documents live
  // in corpus.tsv and corpus.idx, not in its store: Start must refuse it,
  // not come up with an empty tenant.
  const std::string root = Root("old_layout");
  {
    auto service = StartService(root, 1);
    ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
    for (const auto& batch : InBatches(MakeFeed("old", 3, 4), 6)) {
      ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
    }
    service->Stop();
  }
  const std::string config = root + "/tenants/alpha/TENANT.json";
  ASSERT_TRUE(AtomicWriteFile(Env::Default(), config,
                              "{\"half_life_days\":7,\"life_span_days\":30,"
                              "\"k\":3,\"step_days\":1,\"start_time\":0,"
                              "\"seed\":42}")
                  .ok());
  auto refused = TryStart(root, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("old corpus index layout"),
            std::string::npos)
      << refused.status().ToString();
}

TEST_F(ShardServiceTest, TenantsIsSafeToPollWhileTenantsIngest) {
  // Tenants() backs /tenantz and /healthz, which HTTP workers call while
  // the shard workers ingest and step — run under TSan in CI. Every
  // polled row must be a value the owner published.
  const std::string root = Root("poll");
  const std::vector<std::string> names = {"alpha", "bravo"};
  const auto feed = MakeFeed("poll", 6, 8);
  const DayTime flush_until = 7.0;
  auto service = StartService(root, 2, /*queue_capacity=*/2);
  for (const std::string& name : names) {
    ASSERT_TRUE(service->CreateTenant(name, SmallConfig()).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> polls{0};
  std::thread poller([&] {
    while (!done.load()) {
      for (const TenantInfo& info : service->Tenants()) {
        EXPECT_LE(info.docs_ingested, feed.size());
        EXPECT_FALSE(info.failed);
        EXPECT_GE(info.now, 0.0);
        EXPECT_LE(info.now, flush_until);
      }
      polls.fetch_add(1);
    }
  });
  std::vector<std::thread> clients;
  std::atomic<bool> failed{false};
  for (const std::string& name : names) {
    clients.emplace_back([&, name] {
      for (const auto& batch : InBatches(feed, 5)) {
        for (;;) {
          Status status = service->EnqueueIngest(name, batch);
          if (status.ok()) break;
          if (status.code() != StatusCode::kOutOfRange) {
            failed.store(true);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (!service->Flush(name, flush_until).ok()) failed.store(true);
    });
  }
  for (std::thread& client : clients) client.join();
  service->Drain();
  done.store(true);
  poller.join();
  ASSERT_FALSE(failed.load());
  EXPECT_GT(polls.load(), 0u);

  const auto infos = service->Tenants();
  ASSERT_EQ(infos.size(), names.size());
  for (const TenantInfo& info : infos) {
    EXPECT_EQ(info.docs_ingested, feed.size()) << info.name;
    EXPECT_GT(info.steps_applied, 0u) << info.name;
    EXPECT_DOUBLE_EQ(info.now, flush_until) << info.name;
  }
  service->Stop();
}

TEST_F(ShardServiceTest, FullQueueAnswersOutOfRangeAndLosesNothing) {
  const std::string root = Root("backpressure");
  const auto feed = MakeFeed("press", 6, 10);
  const DayTime flush_until = 7.0;
  const std::string expected = ReferenceDigest(
      root + "_ref", SmallConfig(), feed, flush_until);

  // Capacity 1: while the single worker is busy stepping one batch, a
  // second batch can sit queued and a third must be pushed back.
  auto service = StartService(root, 1, /*queue_capacity=*/1);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  uint64_t rejections = 0;
  for (const auto& batch : InBatches(feed, 5)) {
    for (;;) {  // the client contract: back off and retry on 429
      Status status = service->EnqueueIngest("alpha", batch);
      if (status.ok()) break;
      ASSERT_EQ(status.code(), StatusCode::kOutOfRange)
          << status.ToString();
      ++rejections;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(service->Flush("alpha", flush_until).ok());
  auto digest = service->StateDigest("alpha");
  ASSERT_TRUE(digest.ok());
  // Backpressure must only delay work, never corrupt or reorder it.
  EXPECT_EQ(*digest, expected);
  EXPECT_EQ(service->metrics()
                ->GetCounter("shard.ingest.rejected_batches")
                ->Value(),
            rejections);
  service->Stop();
}

TEST_F(ShardServiceTest, ConcurrentMultiTenantIngestMatchesReferences) {
  // Many client threads, many tenants, several shards — run under TSan
  // in CI. Every tenant must end bit-identical to its single-stream
  // reference no matter how the shard workers interleave.
  const std::string root = Root("concurrent");
  constexpr size_t kTenants = 6;
  const DayTime flush_until = 5.0;
  std::vector<std::vector<RawDocument>> feeds;
  std::vector<std::string> expected;
  for (size_t t = 0; t < kTenants; ++t) {
    feeds.push_back(MakeFeed("t" + std::to_string(t), 4, 6));
    expected.push_back(ReferenceDigest(root + "_ref" + std::to_string(t),
                                       SmallConfig(), feeds[t],
                                       flush_until));
  }

  auto service = StartService(root, 4, /*queue_capacity=*/2);
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        service->CreateTenant("t" + std::to_string(t), SmallConfig()).ok());
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string name = "t" + std::to_string(t);
      for (const auto& batch : InBatches(feeds[t], 7)) {
        for (;;) {
          Status status = service->EnqueueIngest(name, batch);
          if (status.ok()) break;
          if (status.code() != StatusCode::kOutOfRange) {
            failed.store(true);
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  ASSERT_FALSE(failed.load());
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        service->Flush("t" + std::to_string(t), flush_until).ok());
  }
  service->Drain();
  for (size_t t = 0; t < kTenants; ++t) {
    auto digest = service->StateDigest("t" + std::to_string(t));
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(*digest, expected[t]) << "tenant " << t;
  }
  service->Stop();
}

TEST_F(ShardServiceTest, StopIsIdempotentAndRejectsLateWork) {
  auto service = StartService(Root("stop"), 2);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  service->Stop();
  service->Stop();
  EXPECT_EQ(service->EnqueueIngest("alpha", {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->Flush("alpha", 1.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardServiceTest, TracedIngestStampsEveryPipelineStage) {
  obs::RequestTracer tracer;
  auto service = StartService(Root("traced"), 1, 64, &tracer);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());

  const obs::TraceContext trace = tracer.Mint();
  tracer.Begin(trace, "alpha");
  tracer.RecordStage(trace, obs::Stage::kIngest);
  ASSERT_TRUE(
      service->EnqueueIngest("alpha", MakeFeed("traced", 1, 4), trace).ok());
  // Closing the window drives the batch through the whole durable
  // pipeline: window close, WAL commit, step, checkpoint.
  ASSERT_TRUE(service->Flush("alpha", 2.0).ok());

  obs::TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(trace, &record));
  EXPECT_TRUE(record.completed);
  EXPECT_FALSE(record.resumed);
  // The acceptance bar: at least 5 ordered stages on one ingest trace.
  EXPECT_GE(record.stages.size(), 5u);
  for (size_t i = 1; i < record.stages.size(); ++i) {
    EXPECT_GE(record.stages[i].seconds, record.stages[i - 1].seconds);
  }
  for (const obs::Stage stage :
       {obs::Stage::kIngest, obs::Stage::kEnqueue, obs::Stage::kDequeue,
        obs::Stage::kWindowClose, obs::Stage::kWalCommit,
        obs::Stage::kStep}) {
    EXPECT_GE(record.StageSeconds(stage), 0.0)
        << "missing stage " << obs::StageName(stage);
  }
  EXPECT_GE(record.EndToEndSeconds(), 0.0);
  service->Stop();
}

TEST_F(ShardServiceTest, TraceSurvivesEvictAndReopen) {
  // The crash-recovery contract of the tracer: a document bound to a
  // trace before its tenant goes down still completes its stage record —
  // flagged resumed — after recovery re-drives the open window.
  obs::RequestTracer tracer;
  const std::string root = Root("trace_recover");
  auto service = StartService(root, 1, 64, &tracer);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());

  const obs::TraceContext trace = tracer.Mint();
  tracer.Begin(trace, "alpha");
  tracer.RecordStage(trace, obs::Stage::kIngest);
  RawDocument doc;
  doc.time = 0.5;  // inside the open window [0, 1): not yet stepped
  doc.text = "recoverterm pending window common";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {doc}, trace).ok());
  service->Drain();
  {
    obs::TraceRecord record;
    ASSERT_TRUE(tracer.Lookup(trace, &record));
    EXPECT_FALSE(record.completed);  // window still open
  }

  // Down and back up. The doc->trace binding lives in the tracer, not
  // the tenant, so it survives the teardown.
  ASSERT_TRUE(service->EvictTenant("alpha").ok());
  ASSERT_TRUE(service->OpenTenant("alpha").ok());
  // Recovery re-primed the unstepped tail; closing the window now
  // finishes the trace's pipeline.
  ASSERT_TRUE(service->Flush("alpha", 2.0).ok());

  obs::TraceRecord record;
  ASSERT_TRUE(tracer.Lookup(trace, &record));
  EXPECT_TRUE(record.completed);
  EXPECT_TRUE(record.resumed);
  EXPECT_GE(record.StageSeconds(obs::Stage::kWindowClose), 0.0);
  EXPECT_GE(record.StageSeconds(obs::Stage::kWalCommit), 0.0);
  EXPECT_GE(record.StageSeconds(obs::Stage::kStep), 0.0);
  service->Stop();
}

TEST_F(ShardServiceTest, RetryAfterHintTracksDrainRate) {
  auto service = StartService(Root("retry_hint"), 1);
  // Before any completions there is no rate to derive: fall back to 1s.
  EXPECT_EQ(service->RetryAfterHintSeconds(0), 1);

  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  for (const auto& batch : InBatches(MakeFeed("retry", 3, 6), 4)) {
    ASSERT_TRUE(service->EnqueueIngest("alpha", batch).ok());
  }
  service->Drain();
  // With completions observed and an empty queue the hint stays at the
  // floor; it must always be a sane header value.
  const int hint = service->RetryAfterHintSeconds(0);
  EXPECT_GE(hint, 1);
  EXPECT_LE(hint, 30);
  // Out-of-range shard index is answered with the fallback, not a crash.
  EXPECT_EQ(service->RetryAfterHintSeconds(99), 1);
  service->Stop();
}

TEST_F(ShardServiceTest, IngestErrorsDoNotPoisonTheTenant) {
  auto service = StartService(Root("badbatch"), 1);
  ASSERT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
  RawDocument good;
  good.time = 2.0;
  good.text = "perfectly fine document";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {good}).ok());
  service->Drain();
  // Out-of-order: older than everything already ingested. The tenant
  // rejects the batch on its shard; the rejection is visible in metrics
  // (shard.ingest.failed), and the tenant keeps serving.
  RawDocument stale;
  stale.time = 0.5;
  stale.text = "too old";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {stale}).ok());
  service->Drain();
  EXPECT_EQ(
      service->metrics()->GetCounter("shard.ingest.failed")->Value(), 1u);
  EXPECT_FALSE(service->GetTenant("alpha")->failed());
  EXPECT_EQ(service->GetTenant("alpha")->docs_ingested(), 1u);
  service->Stop();
}

TEST_F(ShardServiceTest, ExpiryBelowThePreviousClusterCountStillSteps) {
  // K above the active count: each step clusters into k = min(K, active)
  // clusters, seeded from the previous step's. Expiry then takes the
  // active set below the previous count; the seed clusters left with no
  // member are dropped instead of failing the step.
  TenantConfig config = SmallConfig();
  config.k = 8;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  auto service = StartService(Root("shrink"), 1);
  ASSERT_TRUE(service->CreateTenant("alpha", config).ok());
  RawDocument first;
  first.time = 0.25;
  first.text = "iraq weapons inspection";
  RawDocument second;
  second.time = 1.5;
  second.text = "olympics skating gold";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {first, second}).ok());
  ASSERT_TRUE(service->Flush("alpha", 3.0).ok());
  service->Drain();
  std::shared_ptr<Tenant> tenant = service->GetTenant("alpha");
  const uint64_t steps_before = tenant->steps_applied();
  ASSERT_EQ(steps_before, 3u);

  RawDocument late;
  late.time = 40.5;
  late.text = "tobacco settlement senate";
  ASSERT_TRUE(service->EnqueueIngest("alpha", {late}).ok());
  service->Drain();
  obs::MetricsRegistry* metrics = service->metrics();
  EXPECT_EQ(metrics->GetCounter("shard.ingest.failed")->Value(), 0u);
  EXPECT_FALSE(tenant->failed());
  // Windows [3, 32) stepped with the survivors (the one that lost the
  // first document included); the rest had nothing active.
  const uint64_t steps_mid = tenant->steps_applied();
  EXPECT_GT(steps_mid, steps_before);

  // The late document's own window steps too.
  ASSERT_TRUE(service->Flush("alpha", 41.0).ok());
  service->Drain();
  EXPECT_EQ(metrics->GetCounter("shard.ingest.failed")->Value(), 0u);
  EXPECT_EQ(tenant->steps_applied(), steps_mid + 1);
  service->Stop();
}

TEST_F(ShardServiceTest, UnroundedTimesSurviveEvictAndReopen) {
  // A direct EnqueueIngest caller skips the JSONL decoder's "%.6f"
  // rounding. The tenant must still step on the times corpus.tsv reads
  // back, or a reopen mid-stream would diverge from the uninterrupted run.
  std::vector<RawDocument> feed;
  for (int d = 0; d < 6; ++d) {
    for (int i = 0; i < 5; ++i) {
      RawDocument doc;
      doc.time = d + 0.1234567 + 0.1537281 * i;
      doc.text = "word" + std::to_string((i + d) % 4) + " topic" +
                 std::to_string(i % 3) + " common filler";
      feed.push_back(std::move(doc));
    }
  }
  const auto batches = InBatches(feed, 7);
  auto run = [&](const std::string& root, bool reopen) {
    auto service = StartService(root, 1);
    EXPECT_TRUE(service->CreateTenant("alpha", SmallConfig()).ok());
    for (size_t b = 0; b < batches.size(); ++b) {
      EXPECT_TRUE(service->EnqueueIngest("alpha", batches[b]).ok());
      if (reopen && b == batches.size() / 2) {
        service->Drain();
        EXPECT_TRUE(service->EvictTenant("alpha").ok());
        EXPECT_TRUE(service->OpenTenant("alpha").ok());
      }
    }
    EXPECT_TRUE(service->Flush("alpha", 7.0).ok());
    auto digest = service->StateDigest("alpha");
    EXPECT_TRUE(digest.ok());
    EXPECT_EQ(service->GetTenant("alpha")->docs_ingested(), feed.size());
    service->Stop();
    return digest.ok() ? *digest : std::string();
  };
  const std::string uninterrupted = run(Root("unrounded_live"), false);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(run(Root("unrounded_reopen"), true), uninterrupted);
}

}  // namespace
}  // namespace nidc::shard
