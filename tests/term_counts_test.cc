#include "nidc/text/term_counts.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
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
  EXPECT_EQ(TermCountsView().Sum(), 0.0);
}

TEST(TermCountsTest, ViewSumEqualsTheInOrderFold) {
  // Counts past 2³² overall: the view totals them as an integer, which
  // never wraps and equals the in-order double fold bit for bit.
  const uint32_t big = std::numeric_limits<uint32_t>::max();
  const TermCounts c = Make({{1, big}, {2, 3}, {7, big}});
  std::string bytes;
  AppendTermCounts(&bytes, c);
  const TermCountsView view(bytes.data(), c.size());
  double expected = 0.0;
  for (const auto& e : c.entries()) expected += static_cast<double>(e.count);
  EXPECT_EQ(std::bit_cast<uint64_t>(view.Sum()),
            std::bit_cast<uint64_t>(expected));
  EXPECT_EQ(view.Sum(), 2.0 * 4294967295.0 + 3.0);
}

TEST(TermCountsTest, EqualityComparesIdsAndCounts) {
  EXPECT_EQ(Make({{1, 2}}), Make({{1, 2}}));
  EXPECT_NE(Make({{1, 2}}), Make({{1, 3}}));
  EXPECT_NE(Make({{1, 2}}), Make({{2, 2}}));
  EXPECT_NE(Make({{1, 2}}), Make({{1, 2}, {3, 1}}));
}

}  // namespace
}  // namespace nidc
