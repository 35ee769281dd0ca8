#include "nidc/text/inverted_index.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "nidc/util/random.h"

namespace nidc {
namespace {

Document MakeDoc(DocId id, std::vector<TermCounts::Entry> entries) {
  Document doc;
  doc.id = id;
  doc.terms = TermCounts::FromSortedEntries(std::move(entries));
  return doc;
}

TermCounts Query(std::vector<TermCounts::Entry> entries) {
  return TermCounts::FromSortedEntries(std::move(entries));
}

TEST(InvertedIndexTest, EmptyIndex) {
  InvertedIndex index;
  EXPECT_EQ(index.num_docs(), 0u);
  EXPECT_EQ(index.num_terms(), 0u);
  EXPECT_TRUE(index.Postings(0).empty());
  EXPECT_EQ(index.DocumentFrequency(0), 0u);
}

TEST(InvertedIndexTest, AddBuildsPostings) {
  InvertedIndex index;
  index.Add(MakeDoc(0, {{1, 2}, {3, 1}}));
  index.Add(MakeDoc(1, {{3, 4}}));
  EXPECT_EQ(index.num_docs(), 2u);
  EXPECT_EQ(index.num_terms(), 2u);
  const auto postings = index.Postings(3);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0], (Posting{0, 1.0}));
  EXPECT_EQ(postings[1], (Posting{1, 4.0}));
  EXPECT_EQ(index.DocumentFrequency(1), 1u);
  EXPECT_EQ(index.DocumentFrequency(3), 2u);
}

TEST(InvertedIndexTest, RemoveHidesDocument) {
  InvertedIndex index;
  const Document a = MakeDoc(0, {{1, 1}, {2, 1}});
  const Document b = MakeDoc(1, {{2, 1}});
  index.Add(a);
  index.Add(b);
  index.Remove(a);
  EXPECT_FALSE(index.Contains(0));
  EXPECT_TRUE(index.Contains(1));
  EXPECT_TRUE(index.Postings(1).empty());
  ASSERT_EQ(index.Postings(2).size(), 1u);
  EXPECT_EQ(index.Postings(2)[0].doc, 1u);
  EXPECT_EQ(index.DocumentFrequency(2), 1u);
}

TEST(InvertedIndexTest, ReAddAfterRemove) {
  InvertedIndex index;
  const Document a = MakeDoc(0, {{1, 1}});
  index.Add(a);
  index.Remove(a);
  index.Add(a);
  EXPECT_TRUE(index.Contains(0));
  EXPECT_EQ(index.Postings(1).size(), 1u);
}

TEST(InvertedIndexTest, CandidatesShareATerm) {
  InvertedIndex index;
  index.Add(MakeDoc(0, {{1, 1}, {2, 1}}));
  index.Add(MakeDoc(1, {{2, 1}, {3, 1}}));
  index.Add(MakeDoc(2, {{9, 1}}));
  const TermCounts query = Query({{2, 1}, {5, 1}});
  auto candidates = index.Candidates(query, /*exclude=*/99);
  std::sort(candidates.begin(), candidates.end());
  EXPECT_EQ(candidates, (std::vector<DocId>{0, 1}));
}

TEST(InvertedIndexTest, CandidatesExcludeSelf) {
  InvertedIndex index;
  index.Add(MakeDoc(0, {{1, 1}}));
  index.Add(MakeDoc(1, {{1, 1}}));
  auto candidates = index.Candidates(
      Query({{1, 1}}), /*exclude=*/0);
  EXPECT_EQ(candidates, (std::vector<DocId>{1}));
}

TEST(InvertedIndexTest, CandidatesDedupAcrossTerms) {
  InvertedIndex index;
  index.Add(MakeDoc(0, {{1, 1}, {2, 1}, {3, 1}}));
  auto candidates = index.Candidates(
      Query({{1, 1}, {2, 1}, {3, 1}}), 99);
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(InvertedIndexTest, ClearResets) {
  InvertedIndex index;
  index.Add(MakeDoc(0, {{1, 1}}));
  index.Clear();
  EXPECT_EQ(index.num_docs(), 0u);
  EXPECT_TRUE(index.Postings(1).empty());
  index.Add(MakeDoc(0, {{1, 1}}));  // id reusable after Clear
  EXPECT_EQ(index.num_docs(), 1u);
}

TEST(InvertedIndexTest, HeavyChurnStaysConsistent) {
  // Randomized add/remove churn; the index must always agree with a naive
  // membership model.
  Rng rng(99);
  InvertedIndex index;
  std::vector<Document> docs;
  for (DocId id = 0; id < 60; ++id) {
    std::map<TermId, uint32_t> counts;
    const size_t n = 1 + rng.NextBounded(6);
    for (size_t t = 0; t < n; ++t) {
      ++counts[static_cast<TermId>(rng.NextBounded(20))];
    }
    std::vector<TermCounts::Entry> entries;
    for (const auto& [term, count] : counts) entries.push_back({term, count});
    docs.push_back(MakeDoc(id, std::move(entries)));
  }
  std::set<DocId> alive;
  for (int step = 0; step < 500; ++step) {
    const DocId id = static_cast<DocId>(rng.NextBounded(60));
    if (alive.contains(id)) {
      index.Remove(docs[id]);
      alive.erase(id);
    } else {
      index.Add(docs[id]);
      alive.insert(id);
    }
  }
  EXPECT_EQ(index.num_docs(), alive.size());
  // Document frequencies match a naive recount for every term.
  for (TermId t = 0; t < 20; ++t) {
    size_t df = 0;
    for (DocId id : alive) {
      if (docs[id].terms.ValueAt(t) > 0.0) ++df;
    }
    EXPECT_EQ(index.DocumentFrequency(t), df) << "term " << t;
    for (const Posting& p : index.Postings(t)) {
      EXPECT_TRUE(alive.contains(p.doc));
      EXPECT_DOUBLE_EQ(p.tf, docs[p.doc].terms.ValueAt(t));
    }
  }
  // Candidates equal the naive overlap set.
  for (DocId probe = 0; probe < 10; ++probe) {
    auto candidates = index.Candidates(docs[probe].terms, probe);
    std::set<DocId> expected;
    for (DocId id : alive) {
      if (id == probe) continue;
      const auto& entries = docs[id].terms.entries();
      if (std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
            return docs[probe].terms.ValueAt(e.id) > 0.0;
          })) {
        expected.insert(id);
      }
    }
    std::set<DocId> got(candidates.begin(), candidates.end());
    EXPECT_EQ(got, expected) << "probe " << probe;
  }
}

}  // namespace
}  // namespace nidc
