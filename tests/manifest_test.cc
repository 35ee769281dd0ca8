#include "nidc/store/manifest.h"

#include <string>

#include <gtest/gtest.h>

namespace nidc {
namespace {

TEST(ManifestTest, FileNamesAreZeroPaddedAndParseable) {
  EXPECT_EQ(SnapshotFileName(1), "snapshot-000001");
  EXPECT_EQ(SnapshotFileName(1234567), "snapshot-1234567");
  EXPECT_EQ(WalFileName(42), "wal-000042");
  uint64_t generation = 0;
  EXPECT_TRUE(ParseSnapshotFileName("snapshot-000031", &generation));
  EXPECT_EQ(generation, 31u);
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-", &generation));
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-12.tmp", &generation));
  EXPECT_FALSE(ParseSnapshotFileName("wal-000031", &generation));
  EXPECT_FALSE(ParseSnapshotFileName("MANIFEST", &generation));
}

TEST(ManifestTest, SerializeParseRoundTrip) {
  Manifest manifest;
  manifest.generation = 17;
  manifest.snapshot_file = "snapshot-000017";
  manifest.wal_file = "wal-000017";
  auto parsed = ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->generation, 17u);
  EXPECT_EQ(parsed->snapshot_file, "snapshot-000017");
  EXPECT_EQ(parsed->wal_file, "wal-000017");
}

TEST(ManifestTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseManifest("").ok());
  EXPECT_FALSE(ParseManifest("nidc-manifest v2\n").ok());
  EXPECT_FALSE(ParseManifest("nidc-manifest v1\ngeneration x\n").ok());
  EXPECT_FALSE(ParseManifest("nidc-manifest v1\ngeneration 3\n").ok());
}

TEST(ManifestTest, WriteReadRoundTripAndScan) {
  Env* env = Env::Default();
  const std::string dir = testing::TempDir() + "/nidc_manifest_test";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  Manifest manifest;
  manifest.generation = 3;
  manifest.snapshot_file = SnapshotFileName(3);
  manifest.wal_file = WalFileName(3);
  ASSERT_TRUE(WriteManifest(env, dir, manifest).ok());
  auto read = ReadManifest(env, dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->generation, 3u);

  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(1), "a").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(3), "b").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(2), "c").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/not-a-snapshot", "d").ok());
  auto generations = ListSnapshotGenerations(env, dir);
  ASSERT_TRUE(generations.ok());
  EXPECT_EQ(*generations, (std::vector<uint64_t>{3, 2, 1}));

  for (const std::string& name :
       {std::string("MANIFEST"), SnapshotFileName(1), SnapshotFileName(2),
        SnapshotFileName(3), std::string("not-a-snapshot")}) {
    env->RemoveFile(dir + "/" + name);
  }
}

TEST(ManifestTest, FirstGenerationIsACandidateWhileItsWalExists) {
  Env* env = Env::Default();
  const std::string dir = testing::TempDir() + "/nidc_manifest_test_first";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  // A fresh store: wal-000001 alone, no snapshot, no manifest.
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + WalFileName(1), "").ok());
  EXPECT_EQ(ListStoredGenerations(env, dir).value(),
            (std::vector<uint64_t>{1}));
  EXPECT_EQ(ListRecoveryCandidates(env, dir), (std::vector<uint64_t>{1}));

  // After checkpoints it stays the deepest fallback, tried last.
  Manifest manifest;
  manifest.generation = 2;
  manifest.snapshot_file = SnapshotFileName(2);
  manifest.wal_file = WalFileName(2);
  ASSERT_TRUE(WriteManifest(env, dir, manifest).ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(2), "a").ok());
  ASSERT_TRUE(AtomicWriteFile(env, dir + "/" + SnapshotFileName(3), "b").ok());
  EXPECT_EQ(ListRecoveryCandidates(env, dir),
            (std::vector<uint64_t>{2, 3, 1}));
  EXPECT_EQ(ListSnapshotGenerations(env, dir).value(),
            (std::vector<uint64_t>{3, 2}));

  // Once its WAL is pruned, generation 1 is gone.
  ASSERT_TRUE(env->RemoveFile(dir + "/" + WalFileName(1)).ok());
  EXPECT_EQ(ListStoredGenerations(env, dir).value(),
            (std::vector<uint64_t>{3, 2}));
  for (const std::string& name :
       {std::string("MANIFEST"), SnapshotFileName(2), SnapshotFileName(3)}) {
    env->RemoveFile(dir + "/" + name);
  }
}

}  // namespace
}  // namespace nidc
