#include "nidc/util/fault_env.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.h"

namespace nidc {
namespace {

std::string TestDir() {
  const std::string dir = TestTempPath("nidc_fault_env_test");
  Env::Default()->CreateDir(dir);
  return dir;
}

TEST(FaultEnvTest, PassesThroughWhenDisarmed) {
  FaultInjectionEnv env(Env::Default());
  const std::string path = TestDir() + "/passthrough";
  ASSERT_TRUE(AtomicWriteFile(&env, path, "payload").ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "payload");
  EXPECT_FALSE(env.crashed());
  EXPECT_GT(env.ops_issued(), 0u);
  env.RemoveFile(path);
}

TEST(FaultEnvTest, UnsyncedBytesInvisibleUntilSync) {
  // The fault env buffers appends; the base filesystem must not see them
  // before Sync — that is what makes kDropUnsynced meaningful.
  FaultInjectionEnv env(Env::Default());
  const std::string path = TestDir() + "/buffered";
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("buffered bytes").ok());
  auto before = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, "");
  ASSERT_TRUE((*file)->Sync().ok());
  auto after = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "buffered bytes");
  ASSERT_TRUE((*file)->Close().ok());
  env.RemoveFile(path);
}

TEST(FaultEnvTest, CrashAtNthOpFailsThatAndAllLaterOps) {
  FaultInjectionEnv env(Env::Default());
  const std::string path = TestDir() + "/crash_counting";
  env.ArmCrashAtOp(3);  // open is op 1, first append op 2, second append op 3
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("a").ok());
  const Status crashed = (*file)->Append("b");
  EXPECT_FALSE(crashed.ok());
  EXPECT_TRUE(env.crashed());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(env.NewWritableFile(TestDir() + "/other", true).ok());
  EXPECT_FALSE(env.RenameFile(path, path + "2").ok());
}

TEST(FaultEnvTest, DropUnsyncedLosesTail) {
  const std::string path = TestDir() + "/drop";
  Env::Default()->RemoveFile(path);
  FaultInjectionEnv env(Env::Default());
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable|").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("doomed").ok());
  env.ArmCrashAtOp(1, CrashFlush::kDropUnsynced);
  EXPECT_FALSE((*file)->Sync().ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "durable|");
}

TEST(FaultEnvTest, FlushedBytesAreStillUnsynced) {
  // Flush is a counted op that reaches the OS, not storage: a crash
  // resolves flushed bytes by the crash-flush policy like any others.
  for (const CrashFlush flush :
       {CrashFlush::kDropUnsynced, CrashFlush::kKeepUnsynced}) {
    const std::string path = TestDir() + "/flushed";
    Env::Default()->RemoveFile(path);
    FaultInjectionEnv env(Env::Default());
    auto file = env.NewWritableFile(path, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("flushed").ok());
    const uint64_t ops = env.ops_issued();
    ASSERT_TRUE((*file)->Flush().ok());
    EXPECT_EQ(env.ops_issued(), ops + 1);
    env.ArmCrashAtOp(1, flush);
    EXPECT_FALSE((*file)->Flush().ok());
    auto contents = Env::Default()->ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents,
              flush == CrashFlush::kKeepUnsynced ? "flushed" : "");
  }
}

TEST(FaultEnvTest, KeepUnsyncedPreservesBufferedTail) {
  const std::string path = TestDir() + "/keep";
  Env::Default()->RemoveFile(path);
  FaultInjectionEnv env(Env::Default());
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("synced|").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("unsynced").ok());
  env.ArmCrashAtOp(1, CrashFlush::kKeepUnsynced);
  EXPECT_FALSE((*file)->Sync().ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "synced|unsynced");
}

TEST(FaultEnvTest, TornWriteKeepsStrictPrefixOfUnsyncedBytes) {
  const std::string path = TestDir() + "/torn";
  Env::Default()->RemoveFile(path);
  FaultInjectionEnv env(Env::Default());
  auto file = env.NewWritableFile(path, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("head|").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  env.ArmCrashAtOp(1, CrashFlush::kTornWrite);
  EXPECT_FALSE((*file)->Sync().ok());
  auto contents = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // The synced prefix survives untouched; some strict prefix of the
  // unsynced tail may follow.
  ASSERT_GE(contents->size(), 5u);
  EXPECT_EQ(contents->substr(0, 5), "head|");
  EXPECT_LT(contents->size(), 15u);
  EXPECT_EQ(*contents, std::string("head|0123456789").substr(
                           0, contents->size()));
}

TEST(FaultEnvTest, CrashedRenameNeverHappened) {
  Env* base = Env::Default();
  const std::string from = TestDir() + "/rename_from";
  const std::string to = TestDir() + "/rename_to";
  ASSERT_TRUE(AtomicWriteFile(base, from, "new").ok());
  ASSERT_TRUE(AtomicWriteFile(base, to, "old").ok());
  FaultInjectionEnv env(base);
  env.ArmCrashAtOp(1);
  EXPECT_FALSE(env.RenameFile(from, to).ok());
  auto contents = base->ReadFileToString(to);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "old");
  EXPECT_TRUE(base->FileExists(from));
  base->RemoveFile(from);
  base->RemoveFile(to);
}

TEST(FaultEnvTest, DisarmCancelsPendingCrash) {
  FaultInjectionEnv env(Env::Default());
  env.ArmCrashAtOp(1);
  env.Disarm();
  const std::string path = TestDir() + "/disarmed";
  EXPECT_TRUE(AtomicWriteFile(&env, path, "fine").ok());
  EXPECT_FALSE(env.crashed());
  env.RemoveFile(path);
}

TEST(FaultEnvTest, ConcurrentWritersCountEveryOpExactly) {
  // Shard workers share one env. Each thread opens its own file (1 op),
  // appends and syncs kRounds times (2 ops a round) and closes (1 op):
  // no op may be lost or double-counted, and no byte may go astray.
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  FaultInjectionEnv env(Env::Default());
  std::vector<std::thread> writers;
  bool ok[kThreads] = {};  // one element per writer
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&env, &ok, t] {
      const std::string path =
          TestDir() + "/concurrent" + std::to_string(t);
      auto file = env.NewWritableFile(path, true);
      if (!file.ok()) return;
      bool good = true;
      for (int i = 0; i < kRounds; ++i) {
        good = good && (*file)->Append(std::to_string(t)).ok();
        good = good && (*file)->Sync().ok();
      }
      ok[t] = good && (*file)->Close().ok();
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(env.ops_issued(),
            static_cast<uint64_t>(kThreads * (2 * kRounds + 2)));
  EXPECT_FALSE(env.crashed());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "writer " << t;
    const std::string path = TestDir() + "/concurrent" + std::to_string(t);
    auto contents = Env::Default()->ReadFileToString(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents, std::string(kRounds, static_cast<char>('0' + t)));
    Env::Default()->RemoveFile(path);
  }
}

}  // namespace
}  // namespace nidc
