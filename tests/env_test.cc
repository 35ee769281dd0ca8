#include "nidc/util/env.h"

#include <string>

#include <gtest/gtest.h>

namespace nidc {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/nidc_env_test_" + name;
}

TEST(EnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  const std::string path = TestPath("roundtrip");
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello world");
  EXPECT_TRUE(env->RemoveFile(path).ok());
}

TEST(EnvTest, FlushHandsBytesToTheOsBeforeClose) {
  Env* env = Env::Default();
  const std::string path = TestPath("flush");
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("flushed").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  // Another reader sees the bytes while the handle is still open.
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "flushed");
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_FALSE((*file)->Flush().ok());
  env->RemoveFile(path);
}

TEST(EnvTest, SequentialFileReadsTheFileInChunks) {
  Env* env = Env::Default();
  const std::string path = TestPath("sequential");
  std::string contents;
  for (int i = 0; i < 1000; ++i) contents += std::to_string(i) + "\n";
  ASSERT_TRUE(AtomicWriteFile(env, path, contents).ok());
  auto file = env->NewSequentialFile(path);
  ASSERT_TRUE(file.ok());
  std::string read;
  char scratch[7];
  for (;;) {
    auto got = (*file)->Read(sizeof(scratch), scratch);
    ASSERT_TRUE(got.ok());
    read.append(scratch, *got);
    if (*got < sizeof(scratch)) break;
  }
  EXPECT_EQ(read, contents);
  auto more = (*file)->Read(sizeof(scratch), scratch);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(*more, 0u);
  EXPECT_FALSE(env->NewSequentialFile(TestPath("missing")).ok());
  EXPECT_TRUE(env->RemoveFile(path).ok());
}

TEST(EnvTest, ReadMissingFileIsIOError) {
  auto contents = Env::Default()->ReadFileToString(TestPath("missing"));
  EXPECT_FALSE(contents.ok());
}

TEST(EnvTest, AppendModeKeepsExistingContent) {
  Env* env = Env::Default();
  const std::string path = TestPath("append");
  {
    auto file = env->NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("first").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    auto file = env->NewWritableFile(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("|second").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "first|second");
  env->RemoveFile(path);
}

TEST(EnvTest, RenameReplacesTarget) {
  Env* env = Env::Default();
  const std::string from = TestPath("rename_from");
  const std::string to = TestPath("rename_to");
  ASSERT_TRUE(AtomicWriteFile(env, from, "new").ok());
  ASSERT_TRUE(AtomicWriteFile(env, to, "old").ok());
  ASSERT_TRUE(env->RenameFile(from, to).ok());
  EXPECT_FALSE(env->FileExists(from));
  auto contents = env->ReadFileToString(to);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "new");
  env->RemoveFile(to);
}

TEST(EnvTest, CreateDirIsIdempotentAndListable) {
  Env* env = Env::Default();
  const std::string dir = TestPath("dir");
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/b", "2").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/a", "1").ok());
  auto names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
  env->RemoveFile(dir + "/a");
  env->RemoveFile(dir + "/b");
}

TEST(EnvTest, AtomicWriteFileReplacesWholeFileAndCleansTemp) {
  Env* env = Env::Default();
  const std::string path = TestPath("atomic");
  ASSERT_TRUE(AtomicWriteFile(env, path, "version 1").ok());
  ASSERT_TRUE(AtomicWriteFile(env, path, "version 2 is longer").ok());
  auto contents = env->ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "version 2 is longer");
  EXPECT_FALSE(env->FileExists(path + ".tmp"));
  env->RemoveFile(path);
}

TEST(EnvTest, DirName) {
  EXPECT_EQ(DirName("/a/b/c"), "/a/b");
  EXPECT_EQ(DirName("a/b"), "a");
  EXPECT_EQ(DirName("plain"), ".");
}

}  // namespace
}  // namespace nidc
