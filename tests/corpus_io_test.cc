#include "nidc/corpus/corpus_io.h"

#include <algorithm>
#include <cstdio>

#include <gtest/gtest.h>

namespace nidc {
namespace {

TEST(CorpusIoTest, FormatAndParseRoundTrip) {
  RawDocument doc;
  doc.time = 12.25;
  doc.topic = 20074;
  doc.source = "APW";
  doc.text = "protests erupted in lagos";
  Result<RawDocument> parsed = ParseRawDocument(FormatRawDocument(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->time, 12.25);
  EXPECT_EQ(parsed->topic, 20074);
  EXPECT_EQ(parsed->source, "APW");
  EXPECT_EQ(parsed->text, "protests erupted in lagos");
}

TEST(CorpusIoTest, CanonicalTimeIsWhatTheTsvLineReadsBack) {
  for (double time : {0.1234567, -3.0000004, 123456.9999996, 7.0, 1e100,
                      -1e300}) {
    RawDocument doc;
    doc.time = time;
    doc.text = "x";
    Result<RawDocument> parsed = ParseRawDocument(FormatRawDocument(doc));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(CanonicalTime(time), parsed->time) << time;
    EXPECT_EQ(CanonicalTime(CanonicalTime(time)), CanonicalTime(time));
  }
}

TEST(CorpusIoTest, FormatSanitizesTabsAndNewlines) {
  RawDocument doc;
  doc.text = "line1\nline2\twith tab";
  const std::string line = FormatRawDocument(doc);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Exactly the three field-separating tabs survive.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 3);
}

TEST(CorpusIoTest, ParseRejectsWrongFieldCount) {
  EXPECT_EQ(ParseRawDocument("only\tthree\tfields").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRawDocument("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusIoTest, ParseRejectsBadNumbers) {
  EXPECT_EQ(ParseRawDocument("notanumber\t1\tsrc\ttext").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusIoTest, SaveAndLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/nidc_corpus_io_test.tsv";
  std::vector<RawDocument> docs;
  for (int i = 0; i < 5; ++i) {
    RawDocument d;
    d.time = i * 1.5;
    d.topic = 100 + i;
    d.source = "CNN";
    d.text = "document number " + std::to_string(i);
    docs.push_back(d);
  }
  ASSERT_TRUE(SaveRawDocuments(path, docs).ok());

  Result<std::vector<RawDocument>> loaded = LoadRawDocuments(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ((*loaded)[i].time, i * 1.5);
    EXPECT_EQ((*loaded)[i].topic, 100 + i);
    EXPECT_EQ((*loaded)[i].text, docs[i].text);
  }
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadCorpusAnalyzesText) {
  const std::string path = testing::TempDir() + "/nidc_corpus_load_test.tsv";
  RawDocument d;
  d.time = 1.0;
  d.topic = 42;
  d.source = "VOA";
  d.text = "nuclear tests in india";
  ASSERT_TRUE(SaveRawDocuments(path, {d}).ok());

  Result<std::unique_ptr<Corpus>> corpus = LoadCorpus(path);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ((*corpus)->size(), 1u);
  EXPECT_NE((*corpus)->vocabulary().Lookup("nuclear"), kInvalidTermId);
  EXPECT_EQ((*corpus)->doc(0).topic, 42);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadRawDocuments("/definitely/not/here.tsv").status().code(),
            StatusCode::kIOError);
}

TEST(CorpusIoTest, LoadReportsLineNumberOnError) {
  const std::string path = testing::TempDir() + "/nidc_corpus_bad_test.tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# header comment\n1.0\t5\tsrc\tok text\ngarbage line\n", f);
  fclose(f);
  Result<std::vector<RawDocument>> loaded = LoadRawDocuments(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = testing::TempDir() + "/nidc_corpus_cmt_test.tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("# comment\n\n2.0\t7\tABC\tsome text\n", f);
  fclose(f);
  Result<std::vector<RawDocument>> loaded = LoadRawDocuments(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, ParseRejectsNonFiniteTime) {
  EXPECT_EQ(ParseRawDocument("nan\t1\tsrc\ttext").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRawDocument("inf\t1\tsrc\ttext").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CorpusIoTest, LenientLoadSkipsAndCountsBadRecords) {
  const std::string path = testing::TempDir() + "/nidc_corpus_lenient.tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs(
      "1.0\t5\tsrc\tgood one\n"
      "garbage line\n"
      "nan\t5\tsrc\tbad time\n"
      "3.0\t6\tsrc\tgood two\n",
      f);
  fclose(f);

  // Strict (default) fails on line 2 but still reports what it saw.
  CorpusReadStats strict_stats;
  Result<std::vector<RawDocument>> strict =
      LoadRawDocuments(path, {}, &strict_stats);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict_stats.bad_records, 1u);

  // Lenient skips both damaged lines and keeps the good ones.
  CorpusReadOptions lenient;
  lenient.strict = false;
  CorpusReadStats stats;
  Result<std::vector<RawDocument>> loaded =
      LoadRawDocuments(path, lenient, &stats);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].text, "good one");
  EXPECT_EQ((*loaded)[1].text, "good two");
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.bad_records, 2u);
  EXPECT_NE(stats.first_error.find(":2"), std::string::npos);

  CorpusReadStats corpus_stats;
  Result<std::unique_ptr<Corpus>> corpus =
      LoadCorpus(path, lenient, &corpus_stats);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ((*corpus)->size(), 2u);
  EXPECT_EQ(corpus_stats.bad_records, 2u);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, StreamingLoadCorpusMatchesLoadRawDocuments) {
  // LoadCorpus analyzes records as it reads them; it must see exactly the
  // records, counts and first error that LoadRawDocuments reports, and
  // build the same documents as analyzing that vector in order.
  const std::string path = testing::TempDir() + "/nidc_corpus_stream.tsv";
  FILE* f = fopen(path.c_str(), "w");
  fputs(
      "# nidc corpus v1\n"
      "0.500000\t1\tAPW\tearthquake shakes the coastal city\n"
      "\n"
      "1.250000\t2\tNYT\tcentral bank raises interest rates\n"
      "not a record\n"
      "# a comment between records\n"
      "2.000000\t1\tAPW\taftershocks rattle the coastal city again\n"
      "inf\t3\tVOA\tbad time\n"
      "3.750000\t-1\t\tunlabeled report on interest rates\n",
      f);
  fclose(f);

  for (const bool strict : {true, false}) {
    SCOPED_TRACE(strict ? "strict" : "lenient");
    CorpusReadOptions options;
    options.strict = strict;
    CorpusReadStats raw_stats;
    Result<std::vector<RawDocument>> raw =
        LoadRawDocuments(path, options, &raw_stats);
    CorpusReadStats stats;
    Result<std::unique_ptr<Corpus>> corpus = LoadCorpus(path, options, &stats);
    EXPECT_EQ(corpus.ok(), raw.ok());
    EXPECT_EQ(corpus.status().ToString(), raw.status().ToString());
    EXPECT_EQ(stats.records_read, raw_stats.records_read);
    EXPECT_EQ(stats.bad_records, raw_stats.bad_records);
    EXPECT_EQ(stats.first_error, raw_stats.first_error);
    EXPECT_NE(stats.first_error.find(":5"), std::string::npos);
    if (strict) {
      EXPECT_FALSE(corpus.ok());
      EXPECT_EQ(stats.records_read, 2u);
      EXPECT_EQ(stats.bad_records, 1u);
      continue;
    }
    ASSERT_TRUE(corpus.ok());
    EXPECT_EQ(stats.records_read, 4u);
    EXPECT_EQ(stats.bad_records, 2u);
    Corpus expected;
    for (const RawDocument& doc : *raw) {
      expected.AddText(doc.text, doc.time, doc.topic, doc.source);
    }
    ASSERT_EQ((*corpus)->size(), expected.size());
    for (DocId id = 0; id < expected.size(); ++id) {
      const Document& got = (*corpus)->doc(id);
      const Document& want = expected.doc(id);
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.time, want.time);
      EXPECT_EQ(got.topic, want.topic);
      EXPECT_EQ(got.source, want.source);
      EXPECT_EQ(got.terms, want.terms);
    }
    EXPECT_EQ((*corpus)->vocabulary().size(), expected.vocabulary().size());
  }
  std::remove(path.c_str());
}

TEST(CorpusIoTest, SaveIsAtomicAndLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "/nidc_corpus_atomic.tsv";
  RawDocument d;
  d.time = 4.0;
  d.topic = 9;
  d.source = "NYT";
  d.text = "first version";
  ASSERT_TRUE(SaveRawDocuments(path, {d}).ok());
  d.text = "second version";
  ASSERT_TRUE(SaveRawDocuments(path, {d}).ok());
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
  Result<std::vector<RawDocument>> loaded = LoadRawDocuments(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].text, "second version");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nidc
