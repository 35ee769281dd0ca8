#include "nidc/corpus/corpus.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace nidc {
namespace {

TEST(CorpusTest, AddAssignsSequentialIds) {
  Corpus c;
  EXPECT_EQ(c.AddText("first doc", 0.0), 0u);
  EXPECT_EQ(c.AddText("second doc", 1.0), 1u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(CorpusTest, AddTextAnalyzesAgainstSharedVocabulary) {
  Corpus c;
  const DocId a = c.AddText("iraq conflict weapons", 0.0);
  const DocId b = c.AddText("iraq sanctions", 0.5);
  const TermId iraq = c.vocabulary().Lookup("iraq");
  ASSERT_NE(iraq, kInvalidTermId);
  EXPECT_DOUBLE_EQ(c.doc(a).terms.ValueAt(iraq), 1.0);
  EXPECT_DOUBLE_EQ(c.doc(b).terms.ValueAt(iraq), 1.0);
}

TEST(CorpusTest, DocCarriesMetadata) {
  Corpus c;
  const DocId id = c.AddText("text body", 3.5, 20001, "CNN");
  const Document& doc = c.doc(id);
  EXPECT_DOUBLE_EQ(doc.time, 3.5);
  EXPECT_EQ(doc.topic, 20001);
  EXPECT_EQ(doc.source, "CNN");
}

TEST(CorpusTest, LengthIsTermCountSum) {
  Corpus c;
  const DocId id = c.AddText("bomb bomb explosion", 0.0);
  EXPECT_DOUBLE_EQ(c.doc(id).Length(), 3.0);
}

TEST(CorpusTest, IsChronologicalDetectsOrder) {
  Corpus c;
  c.AddText("one", 0.0);
  c.AddText("two", 1.0);
  c.AddText("three", 1.0);  // ties allowed
  EXPECT_TRUE(c.IsChronological());
  c.AddText("rewind", 0.5);
  EXPECT_FALSE(c.IsChronological());
}

TEST(CorpusTest, DocsInRangeHalfOpen) {
  Corpus c;
  c.AddText("a", 0.0);
  c.AddText("b", 1.0);
  c.AddText("c", 2.0);
  EXPECT_EQ(c.DocsInRange(0.0, 2.0), (std::vector<DocId>{0, 1}));
  EXPECT_EQ(c.DocsInRange(1.0, 1.5), (std::vector<DocId>{1}));
  EXPECT_TRUE(c.DocsInRange(5.0, 6.0).empty());
}

TEST(CorpusTest, TopicCountsSkipUnlabeled) {
  Corpus c;
  c.AddText("a", 0.0, 7);
  c.AddText("b", 0.0, 7);
  c.AddText("c", 0.0, 9);
  c.AddText("d", 0.0);  // unlabeled
  auto counts = c.TopicCounts();
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[7], 2u);
  EXPECT_EQ(counts[9], 1u);
  EXPECT_EQ(c.Topics(), (std::vector<TopicId>{7, 9}));
}

TEST(CorpusTest, MinMaxTime) {
  Corpus c;
  EXPECT_DOUBLE_EQ(c.MinTime(), 0.0);
  c.AddText("a", 2.0);
  c.AddText("b", 5.0);
  c.AddText("c", 1.0);
  EXPECT_DOUBLE_EQ(c.MinTime(), 1.0);
  EXPECT_DOUBLE_EQ(c.MaxTime(), 5.0);
}

TEST(CorpusTest, EmptyCorpus) {
  Corpus c;
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.Topics().empty());
  EXPECT_TRUE(c.IsChronological());
}

// Five documents at days 0..4, topics 10..14.
Corpus FiveDays() {
  Corpus c;
  for (int d = 0; d < 5; ++d) {
    c.AddText("day" + std::to_string(d) + " shared", d, 10 + d);
  }
  return c;
}

TEST(CorpusTest, ReleaseKeepsIdsAndSize) {
  Corpus c = FiveDays();
  c.ReleaseBefore(2);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.first_retained(), 2u);
  ASSERT_EQ(c.docs().size(), 3u);
  for (DocId id = 2; id < 5; ++id) {
    EXPECT_EQ(c.doc(id).id, id);
    EXPECT_DOUBLE_EQ(c.doc(id).time, id);
    EXPECT_EQ(c.doc(id).terms.ValueAt(c.vocabulary().Lookup(
                  "day" + std::to_string(id))),
              1.0);
  }
  EXPECT_EQ(c.docs().front().id, 2u);
  // Releasing below what is already gone changes nothing.
  c.ReleaseBefore(1);
  EXPECT_EQ(c.first_retained(), 2u);
  EXPECT_EQ(c.docs().size(), 3u);
}

TEST(CorpusTest, AddAndInstallAfterReleaseGetTheNextId) {
  Corpus c = FiveDays();
  c.ReleaseBefore(4);
  EXPECT_EQ(c.AddText("fresh", 5.0), 5u);
  EXPECT_EQ(c.doc(5).time, 5.0);

  Document doc;
  doc.time = 6.0;
  const auto term = static_cast<TermId>(c.vocabulary().size());
  doc.terms = TermCounts::FromSortedEntries({{term, 2}});
  // The record must start at the next id, not at the retained count.
  EXPECT_FALSE(c.Install(term, {"installed"}, 2, {doc}).ok());
  ASSERT_TRUE(c.Install(term, {"installed"}, 6, {doc}).ok());
  EXPECT_EQ(c.size(), 7u);
  EXPECT_EQ(c.doc(6).id, 6u);
  EXPECT_EQ(c.doc(6).terms.ValueAt(c.vocabulary().Lookup("installed")),
            2.0);
  EXPECT_EQ(c.first_retained(), 4u);
  EXPECT_EQ(c.docs().size(), 3u);
}

TEST(CorpusTest, RetainedTermEntriesFollowAddInstallAndRelease) {
  Corpus c = FiveDays();  // two terms per document
  EXPECT_EQ(c.retained_term_entries(), 10u);
  c.ReleaseBefore(2);
  EXPECT_EQ(c.retained_term_entries(), 6u);
  c.AddText("apple banana cherry", 5.0);
  EXPECT_EQ(c.retained_term_entries(), 9u);

  Document doc;
  doc.time = 6.0;
  const auto term = static_cast<TermId>(c.vocabulary().size());
  doc.terms = TermCounts::FromSortedEntries({{0, 1}, {term, 4}});
  // A rejected install leaves the total as it was.
  EXPECT_FALSE(c.Install(term, {}, 6, {doc}).ok());
  EXPECT_EQ(c.retained_term_entries(), 9u);
  ASSERT_TRUE(c.Install(term, {"installed"}, 6, {doc}).ok());
  EXPECT_EQ(c.retained_term_entries(), 11u);

  c.ReleaseBefore(100);
  EXPECT_EQ(c.retained_term_entries(), 0u);
}

TEST(CorpusTest, ReleasePastSizeIsClamped) {
  Corpus c = FiveDays();
  c.ReleaseBefore(100);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.first_retained(), 5u);
  EXPECT_TRUE(c.docs().empty());
  EXPECT_FALSE(c.empty());
  EXPECT_EQ(c.AddText("after", 7.0), 5u);
  EXPECT_EQ(c.first_retained(), 5u);
  EXPECT_EQ(c.doc(5).time, 7.0);
}

TEST(CorpusTest, MinMaxTimeCoverReleasedDocuments) {
  Corpus c;
  c.AddText("a", 2.0);
  c.AddText("b", 5.0);
  c.AddText("c", 1.0);
  c.ReleaseBefore(2);
  EXPECT_DOUBLE_EQ(c.MinTime(), 1.0);
  EXPECT_DOUBLE_EQ(c.MaxTime(), 5.0);
  c.ReleaseBefore(3);
  EXPECT_DOUBLE_EQ(c.MinTime(), 1.0);
  EXPECT_DOUBLE_EQ(c.MaxTime(), 5.0);
}

TEST(CorpusTest, ScansCoverRetainedDocuments) {
  Corpus c = FiveDays();
  c.ReleaseBefore(2);
  EXPECT_EQ(c.DocsInRange(0.0, 4.0), (std::vector<DocId>{2, 3}));
  EXPECT_TRUE(c.DocsInRange(0.0, 2.0).empty());
  EXPECT_EQ(c.Topics(), (std::vector<TopicId>{12, 13, 14}));
  EXPECT_TRUE(c.IsChronological());
}

}  // namespace
}  // namespace nidc
