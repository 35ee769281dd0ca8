#include "nidc/text/term_counts.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace nidc {
namespace {

TermCounts Make(std::vector<TermCounts::Entry> entries) {
  return TermCounts::FromSortedEntries(std::move(entries));
}

TEST(TermCountsTest, FromSortedEntriesKeepsTheEntries) {
  const TermCounts c = Make({{2, 1}, {5, 3}, {9, 2}});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.entries()[0], (TermCounts::Entry{2, 1}));
  EXPECT_EQ(c.entries()[1], (TermCounts::Entry{5, 3}));
  EXPECT_EQ(c.entries()[2], (TermCounts::Entry{9, 2}));
}

TEST(TermCountsTest, EmptyCounts) {
  const TermCounts c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.Sum(), 0.0);
  EXPECT_EQ(c.ValueAt(0), 0.0);
}

TEST(TermCountsTest, ValueAtReturnsTheCount) {
  const TermCounts c =
      Make({{1, 2}, {4, std::numeric_limits<uint32_t>::max()}});
  EXPECT_EQ(c.ValueAt(1), 2.0);
  EXPECT_EQ(c.ValueAt(4), 4294967295.0);
}

TEST(TermCountsTest, ValueAtMissingIsZero) {
  const TermCounts c = Make({{1, 1}, {3, 2}});
  EXPECT_EQ(c.ValueAt(0), 0.0);
  EXPECT_EQ(c.ValueAt(2), 0.0);
  EXPECT_EQ(c.ValueAt(4), 0.0);
}

TEST(TermCountsTest, SumAddsCountsInEntryOrder) {
  // Counts past 2³² overall: each is converted to double before it is
  // added, so the sum never wraps and equals the double fold bit for bit.
  const uint32_t big = std::numeric_limits<uint32_t>::max();
  const TermCounts c = Make({{1, big}, {2, 3}, {7, big}});
  double expected = 0.0;
  for (const auto& e : c.entries()) expected += static_cast<double>(e.count);
  EXPECT_EQ(std::bit_cast<uint64_t>(c.Sum()),
            std::bit_cast<uint64_t>(expected));
  EXPECT_EQ(c.Sum(), 2.0 * 4294967295.0 + 3.0);
  EXPECT_EQ(Make({{1, 2}, {4, 3}}).Sum(), 5.0);
}

TEST(TermCountsTest, EqualityComparesIdsAndCounts) {
  EXPECT_EQ(Make({{1, 2}}), Make({{1, 2}}));
  EXPECT_NE(Make({{1, 2}}), Make({{1, 3}}));
  EXPECT_NE(Make({{1, 2}}), Make({{2, 2}}));
  EXPECT_NE(Make({{1, 2}}), Make({{1, 2}, {3, 1}}));
}

}  // namespace
}  // namespace nidc
