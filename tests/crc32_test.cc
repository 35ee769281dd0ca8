#include "nidc/util/crc32.h"

#include <string>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

namespace nidc {
namespace {

// Known-answer vectors for CRC-32C (Castagnoli); the classic "123456789"
// check value is 0xE3069283.
TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

// RFC 3720 (iSCSI) appendix B.4 vectors, through both implementations.
TEST(Crc32Test, Rfc3720Vectors) {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::string scsi_read = std::string(
      "\x01\xc0\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x14\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x14\x00\x00\x00\x18"
      "\x28\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00",
      48);
  const std::pair<std::string, uint32_t> vectors[] = {
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xff'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {scsi_read, 0xD9963A56u},
  };
  for (const auto& [data, expected] : vectors) {
    EXPECT_EQ(Crc32c(data), expected);
    EXPECT_EQ(Crc32cTable(data), expected);
  }
}

// Every length 0..4096 at every start alignment 0..7 — the hardware path's
// unaligned head, 8-byte body and byte tail — must equal the table loop.
TEST(Crc32Test, MatchesTableAtEveryLengthAndAlignment) {
  Rng rng(20240611);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextBounded(256));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 4096; ++length) {
      const std::string_view data(buffer.data() + align, length);
      ASSERT_EQ(Crc32c(data), Crc32cTable(data))
          << "align " << align << " length " << length;
    }
  }
}

TEST(Crc32Test, SeedChainingMatchesTable) {
  Rng rng(7);
  std::string data(1000, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  const uint32_t whole = Crc32cTable(data);
  for (size_t split = 0; split <= data.size(); split += 37) {
    const std::string_view head(data.data(), split);
    const std::string_view tail(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), whole) << split;
    EXPECT_EQ(Crc32c(tail, Crc32cTable(head)), whole) << split;
    EXPECT_EQ(Crc32cTable(tail, Crc32c(head)), whole) << split;
  }
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string data = "incremental checksum input";
  const uint32_t whole = Crc32c(data);
  const uint32_t chained = Crc32c(data.substr(10), Crc32c(data.substr(0, 10)));
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, SensitiveToSingleBitFlips) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32c(data);
  data[4] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32Test, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

}  // namespace
}  // namespace nidc
