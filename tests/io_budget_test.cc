// Filesystem budgets of the set-up paths — creating a tenant, reopening
// a crashed one and opening a fresh durable store — and of a tenant's
// ingest. A counting Env tallies syncs and new files, so an extra fsync or
// an eager checkpoint fails here instead of surfacing later as set-up or
// ingest time.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "env_wrapper.h"
#include "nidc/shard/tenant.h"
#include "nidc/store/durable_clusterer.h"
#include "nidc/store/torture.h"
#include "nidc/util/fault_env.h"
#include "temp_path.h"

namespace nidc {
namespace {

class CountingEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    if (!base()->FileExists(path)) created.push_back(path);
    Result<std::unique_ptr<WritableFile>> file =
        base()->NewWritableFile(path, truncate);
    if (!file.ok()) return file;
    return std::unique_ptr<WritableFile>(
        std::make_unique<CountingFile>(std::move(file).value(), this));
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    renamed_to.push_back(to);
    return base()->RenameFile(from, to);
  }

  Status SyncDir(const std::string& path) override {
    synced_dirs.push_back(path);
    return base()->SyncDir(path);
  }

  size_t syncs() const { return file_syncs + synced_dirs.size(); }

  uint64_t file_syncs = 0;
  std::vector<std::string> synced_dirs;
  std::vector<std::string> created;
  std::vector<std::string> renamed_to;

 private:
  class CountingFile : public WritableFileWrapper {
   public:
    CountingFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
        : WritableFileWrapper(std::move(base)), env_(env) {}
    Status Sync() override {
      ++env_->file_syncs;
      return WritableFileWrapper::Sync();
    }

   private:
    CountingEnv* env_;
  };
};

std::string FreshRoot(const std::string& name) {
  const std::string root = TestTempPath("nidc_io_budget_" + name);
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

std::string BaseName(const std::string& path) {
  return path.substr(path.find_last_of('/') + 1);
}

TEST(IoBudgetTest, TenantCreateSyncsThreeTimesAndWritesNoCheckpoint) {
  const std::string root = FreshRoot("tenant");
  std::filesystem::create_directories(root + "/tenants");
  const std::string dir = root + "/tenants/budget";
  CountingEnv env(Env::Default());
  shard::TenantRuntime runtime;
  runtime.env = &env;
  shard::TenantConfig config;
  config.params.half_life_days = 7.0;
  config.params.life_span_days = 30.0;
  config.k = 3;

  auto tenant = shard::Tenant::Create("budget", dir, config, runtime);
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_LE(env.syncs(), 3u);
  EXPECT_LE(env.created.size(), 3u);
  std::vector<std::string> names;
  for (const std::string& path : env.created) names.push_back(BaseName(path));
  for (const std::string& path : env.renamed_to) {
    names.push_back(BaseName(path));
  }
  for (const std::string& name : names) {
    EXPECT_NE(name.rfind("snapshot-", 0), 0u) << name;
    EXPECT_NE(name, "MANIFEST");
  }
  // The syncs that make the tenant durable: its own directory (TENANT.json
  // and the store/ and corpus.tsv entries) and its parent's entry for it.
  EXPECT_NE(std::find(env.synced_dirs.begin(), env.synced_dirs.end(), dir),
            env.synced_dirs.end());
  EXPECT_NE(std::find(env.synced_dirs.begin(), env.synced_dirs.end(),
                      root + "/tenants"),
            env.synced_dirs.end());
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/store/" + WalFileName(1)));
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/corpus.tsv"));
}

TEST(IoBudgetTest, IngestSyncsOncePerBatch) {
  // A batch whose documents all fall in the open window, then one whose
  // first document closes that window.
  const auto batch = [](double day) {
    std::vector<RawDocument> docs(3);
    for (size_t i = 0; i < docs.size(); ++i) {
      docs[i].time = day + 0.1 * static_cast<double>(i + 1);
      docs[i].text = "budget words " + std::to_string(i);
    }
    return docs;
  };
  for (const WalSyncMode mode :
       {WalSyncMode::kEveryRecord, WalSyncMode::kNone}) {
    const bool every = mode == WalSyncMode::kEveryRecord;
    SCOPED_TRACE(every ? "every record" : "none");
    const std::string root = FreshRoot(every ? "ingest_every" : "ingest_none");
    CountingEnv env(Env::Default());
    shard::TenantRuntime runtime;
    runtime.env = &env;
    runtime.wal_sync = mode;
    shard::TenantConfig config;
    config.k = 2;
    auto tenant = shard::Tenant::Create("budget", root + "/budget", config,
                                        runtime);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    const uint64_t expected = every ? 1 : 0;

    uint64_t before = env.file_syncs;
    ASSERT_TRUE((*tenant)->Ingest(batch(0.0)).ok());
    EXPECT_EQ((*tenant)->steps_applied(), 0u);
    EXPECT_EQ(env.file_syncs - before, expected) << "closes no window";

    before = env.file_syncs;
    ASSERT_TRUE((*tenant)->Ingest(batch(1.0)).ok());
    EXPECT_EQ((*tenant)->steps_applied(), 1u);
    EXPECT_EQ(env.file_syncs - before, expected) << "closes one window";
  }
}

TEST(IoBudgetTest, ReopenAfterCrashWritesNoCheckpoint) {
  const std::string dir = FreshRoot("reopen") + "/budget";
  shard::TenantConfig config;
  config.k = 2;
  uint64_t generation = 0;
  {
    FaultInjectionEnv fault_env(Env::Default());
    shard::TenantRuntime runtime;
    runtime.env = &fault_env;
    runtime.checkpoint_every = 3;
    auto tenant = shard::Tenant::Create("budget", dir, config, runtime);
    ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
    for (int day = 0; day < 5; ++day) {
      std::vector<RawDocument> docs(3);
      for (size_t i = 0; i < docs.size(); ++i) {
        docs[i].time = day + 0.1 * static_cast<double>(i + 1);
        docs[i].text = "reopen words " + std::to_string(day + i);
      }
      ASSERT_TRUE((*tenant)->Ingest(docs).ok());
    }
    // Four steps: a checkpoint after the third, then one step and the
    // corpus records around it in the new generation's WAL.
    ASSERT_EQ((*tenant)->steps_applied(), 4u);
    generation = (*tenant)->durable().generation();
    ASSERT_GT(generation, 1u);
    ASSERT_EQ((*tenant)->durable().wal_records_since_checkpoint(), 1u);
    // Process kill: everything written survives, no final checkpoint.
    fault_env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  }

  CountingEnv env(Env::Default());
  shard::TenantRuntime runtime;
  runtime.env = &env;
  runtime.checkpoint_every = 3;
  auto reopened = shard::Tenant::Open("budget", dir, runtime);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const DurableClusterer& store = (*reopened)->durable();
  EXPECT_TRUE(store.recovery().resumed);
  EXPECT_EQ(store.recovery().source_generation, generation);
  EXPECT_EQ(store.generation(), store.recovery().source_generation);
  EXPECT_EQ(store.recovery().replayed_records, 1u);
  EXPECT_EQ((*reopened)->steps_applied(), 4u);
  // The cadence goes on from the recovered generation's step.
  EXPECT_EQ(store.wal_records_since_checkpoint(), 1u);
  for (const std::string& path : env.created) {
    EXPECT_NE(BaseName(path).rfind("wal-", 0), 0u) << path;
  }
  std::vector<std::string> written = env.created;
  written.insert(written.end(), env.renamed_to.begin(), env.renamed_to.end());
  for (const std::string& path : written) {
    EXPECT_NE(BaseName(path).rfind("snapshot-", 0), 0u) << path;
    EXPECT_NE(BaseName(path), "MANIFEST") << path;
  }
  // The reused WAL's one sync makes everything recovery replayed durable.
  EXPECT_EQ(env.file_syncs, 1u);
  EXPECT_TRUE(env.synced_dirs.empty());
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(IoBudgetTest, FreshOpenSyncsNothingUntilTheFirstStep) {
  const std::string dir = FreshRoot("store") + "/store";
  TortureOptions shape;
  shape.num_steps = 4;
  const TortureStream stream = BuildTortureStream(shape);
  IncrementalOptions incremental;
  incremental.kmeans.k = 2;
  CountingEnv env(Env::Default());
  DurableOptions durable;
  durable.dir = dir;
  durable.env = &env;
  ASSERT_EQ(durable.wal_sync, WalSyncMode::kEveryRecord);

  auto opened = DurableClusterer::Open(stream.corpus.get(), shape.params,
                                       incremental, durable);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(env.file_syncs, 0u);
  EXPECT_TRUE(env.synced_dirs.empty());
  EXPECT_EQ(env.created, std::vector<std::string>{dir + "/" + WalFileName(1)});

  // The first record syncs itself and, once, the directory holding it.
  ASSERT_TRUE((*opened)->Step(stream.batches[0], stream.taus[0]).ok());
  EXPECT_EQ(env.file_syncs, 1u);
  EXPECT_EQ(env.synced_dirs, std::vector<std::string>{dir});
  ASSERT_TRUE((*opened)->Step(stream.batches[1], stream.taus[1]).ok());
  EXPECT_EQ(env.file_syncs, 2u);
  EXPECT_EQ(env.synced_dirs.size(), 1u);
  ASSERT_TRUE((*opened)->Close().ok());
}

}  // namespace
}  // namespace nidc
