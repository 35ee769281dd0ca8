#include "nidc/store/wal.h"

#include <string>

#include <gtest/gtest.h>

#include "nidc/util/fault_env.h"
#include "temp_path.h"

namespace nidc {
namespace {

std::string TestPath(const std::string& name) {
  return TestTempPath("nidc_wal_test_" + name);
}

TEST(WalTest, RoundTripsRecords) {
  Env* env = Env::Default();
  const std::string path = TestPath("roundtrip");
  {
    auto writer = WalWriter::Create(env, path, WalSyncMode::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord("first").ok());
    ASSERT_TRUE((*writer)->AppendRecord("").ok());
    ASSERT_TRUE((*writer)->AppendRecord("third record, longer").ok());
    EXPECT_EQ((*writer)->records_appended(), 3u);
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  EXPECT_EQ(read->dropped_bytes, 0u);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0], "first");
  EXPECT_EQ(read->records[1], "");
  EXPECT_EQ(read->records[2], "third record, longer");
  env->RemoveFile(path);
}

TEST(WalTest, EmptyWalIsCleanAndHeaderOnly) {
  Env* env = Env::Default();
  const std::string path = TestPath("empty");
  {
    auto writer = WalWriter::Create(env, path, WalSyncMode::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  EXPECT_TRUE(read->records.empty());
  env->RemoveFile(path);
}

TEST(WalTest, TruncatedTailDropsOnlyTheDamage) {
  Env* env = Env::Default();
  const std::string path = TestPath("truncated");
  {
    auto writer = WalWriter::Create(env, path, WalSyncMode::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord("intact one").ok());
    ASSERT_TRUE((*writer)->AppendRecord("intact two").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto full = env->ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  // Chop 4 bytes off the second record's body.
  const std::string truncated = full->substr(0, full->size() - 4);
  ASSERT_TRUE(AtomicWriteFile(env, path, truncated).ok());

  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  EXPECT_GT(read->dropped_bytes, 0u);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "intact one");
  // The same bytes already in memory parse the same way.
  EXPECT_TRUE(HasWalHeader(truncated));
  const WalReadResult parsed = ParseWal(truncated);
  EXPECT_EQ(parsed.records, read->records);
  EXPECT_FALSE(parsed.clean);
  EXPECT_EQ(parsed.dropped_bytes, read->dropped_bytes);
  env->RemoveFile(path);
}

TEST(WalTest, CorruptedByteFailsChecksumAndStopsThere) {
  Env* env = Env::Default();
  const std::string path = TestPath("corrupt");
  {
    auto writer = WalWriter::Create(env, path, WalSyncMode::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord("good record").ok());
    ASSERT_TRUE((*writer)->AppendRecord("soon to be flipped").ok());
    ASSERT_TRUE((*writer)->AppendRecord("unreachable after damage").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto full = env->ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  std::string damaged = *full;
  damaged[damaged.size() / 2] ^= 0x40;  // flip a bit mid-file
  ASSERT_TRUE(AtomicWriteFile(env, path, damaged).ok());

  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "good record");
  env->RemoveFile(path);
}

TEST(WalTest, MissingHeaderQuarantinesEverything) {
  Env* env = Env::Default();
  const std::string path = TestPath("bad_header");
  ASSERT_TRUE(AtomicWriteFile(env, path, "not a wal at all").ok());
  EXPECT_FALSE(HasWalHeader("not a wal at all"));
  EXPECT_FALSE(HasWalHeader(""));
  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->dropped_bytes, 16u);
  env->RemoveFile(path);
}

TEST(WalTest, ReaderStreamsRecordsAndSurvivesATornLengthField) {
  Env* env = Env::Default();
  const std::string path = TestPath("reader");
  {
    auto writer = WalWriter::Create(env, path, WalSyncMode::kNone);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendRecord("alpha").ok());
    ASSERT_TRUE((*writer)->AppendRecord(std::string(200000, 'b')).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  std::string record;
  ASSERT_TRUE((*reader)->Next(&record));
  EXPECT_EQ(record, "alpha");
  ASSERT_TRUE((*reader)->Next(&record));
  EXPECT_EQ(record, std::string(200000, 'b'));
  EXPECT_FALSE((*reader)->Next(&record));
  EXPECT_TRUE((*reader)->clean());
  EXPECT_TRUE((*reader)->status().ok());

  // A frame whose length field claims ~1 GB over a 4-byte body: the scan
  // stops there and counts every byte after the valid record as dropped.
  auto full = env->ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  std::string torn = full->substr(0, 8 + 8 + 5);
  torn += std::string("\xff\xff\xff\x3f", 4) + "crc!" + "body";
  ASSERT_TRUE(AtomicWriteFile(env, path, torn).ok());
  auto read = ReadWal(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->dropped_bytes, 12u);
  EXPECT_NE(read->error.find("truncated record body"), std::string::npos);
  env->RemoveFile(path);
}

TEST(WalTest, UnsyncedTailLostOnDropCrashButLogStaysReadable) {
  Env* base = Env::Default();
  const std::string path = TestPath("crash_tail");
  FaultInjectionEnv env(base);
  auto writer = WalWriter::Create(&env, path, WalSyncMode::kEveryRecord);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRecord("synced record").ok());
  // Crash on the sync of the next record: its bytes never reach storage.
  env.ArmCrashAtOp(2, CrashFlush::kDropUnsynced);
  EXPECT_FALSE((*writer)->AppendRecord("lost record").ok());

  auto read = ReadWal(base, path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "synced record");
  base->RemoveFile(path);
}

TEST(WalTest, TornWriteLeavesDecodablePrefix) {
  Env* base = Env::Default();
  const std::string path = TestPath("torn");
  FaultInjectionEnv env(base);
  auto writer = WalWriter::Create(&env, path, WalSyncMode::kEveryRecord);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendRecord("record before the tear").ok());
  env.ArmCrashAtOp(2, CrashFlush::kTornWrite);
  EXPECT_FALSE((*writer)->AppendRecord("record torn in half").ok());

  auto read = ReadWal(base, path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);  // the torn frame is quarantined
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "record before the tear");
  base->RemoveFile(path);
}

TEST(WalTest, UnsyncedHeaderReadsAsZeroRecords) {
  // Create leaves the header to the first record's sync. A crash before
  // it leaves an empty, short or whole header, and each reads as a log
  // with no records.
  Env* base = Env::Default();
  const std::string path = TestPath("unsynced_header");
  for (CrashFlush flush : {CrashFlush::kDropUnsynced, CrashFlush::kTornWrite,
                           CrashFlush::kKeepUnsynced}) {
    FaultInjectionEnv env(base);
    auto writer = WalWriter::Create(&env, path, WalSyncMode::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    env.ArmCrashAtOp(1, flush);
    EXPECT_FALSE(env.CreateDir(path + ".dir").ok());

    auto read = ReadWal(base, path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->records.empty());
    const size_t kept = flush == CrashFlush::kDropUnsynced  ? 0
                        : flush == CrashFlush::kTornWrite ? 4
                                                          : 8;
    EXPECT_EQ(base->ReadFileToString(path)->size(), kept);
    EXPECT_EQ(read->clean, kept != 4);
    EXPECT_EQ(read->dropped_bytes, kept == 4 ? 4u : 0u);
    base->RemoveFile(path);
  }
}

TEST(WalStepRecordTest, EncodeDecodeRoundTripIsExact) {
  WalStepRecord record;
  record.tau = 12.300000000000000710542735760100185871124267578125;
  record.new_docs = {0, 7, 4294967295u};
  auto decoded = DecodeStepRecord(EncodeStepRecord(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tau, record.tau);  // bit-exact via %a hex floats
  EXPECT_EQ(decoded->new_docs, record.new_docs);
}

TEST(WalStepRecordTest, EmptyBatchRoundTrips) {
  WalStepRecord record;
  record.tau = 1.5;
  auto decoded = DecodeStepRecord(EncodeStepRecord(record));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tau, 1.5);
  EXPECT_TRUE(decoded->new_docs.empty());
}

TEST(WalStepRecordTest, RejectsMalformedPayloads) {
  EXPECT_FALSE(DecodeStepRecord("").ok());
  EXPECT_FALSE(DecodeStepRecord("walk 0x1p+1 0").ok());
  EXPECT_FALSE(DecodeStepRecord("step notanumber 0").ok());
  EXPECT_FALSE(DecodeStepRecord("step 0x1p+1 2 5").ok());      // count lies
  EXPECT_FALSE(DecodeStepRecord("step 0x1p+1 1 hello").ok());  // bad id
  EXPECT_FALSE(
      DecodeStepRecord("step 0x1p+1 1 99999999999999").ok());  // id overflow
}

}  // namespace
}  // namespace nidc
