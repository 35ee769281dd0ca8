#include "nidc/corpus/tdt2_reader.h"

#include <gtest/gtest.h>

#include "temp_path.h"

namespace nidc {
namespace {

constexpr const char* kSampleSgml = R"(
<DOC>
<DOCNO> APW19980104.0845 </DOCNO>
<DATE_TIME> 19980104.0845 </DATE_TIME>
<TEXT>
<P>BAGHDAD (AP) - U.N. weapons inspectors left Iraq on Sunday.</P>
<P>Officials said the standoff would continue.</P>
</TEXT>
</DOC>
<DOC>
<DOCNO> CNN19980105.1600.0042 </DOCNO>
<TEXT>
The Winter Olympics open next month in Nagano, Japan.
</TEXT>
</DOC>
<DOC>
<DOCNO> NYT19980118.0001 </DOCNO>
<DATE> 19980118 </DATE>
<TEXT>Tobacco settlement talks resumed in the Senate.</TEXT>
</DOC>
)";

TEST(Tdt2DateTest, ConvertsRelativeToEpoch) {
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980104", 19980104).value(), 0.0);
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980105", 19980104).value(), 1.0);
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980203", 19980104).value(), 30.0);
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980630", 19980104).value(), 177.0);
}

TEST(Tdt2DateTest, ParsesTimeOfDayFraction) {
  // 0600 = a quarter of a day.
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980104.0600", 19980104).value(), 0.25);
  EXPECT_NEAR(Tdt2DateToDays("19980105.1200.0042", 19980104).value(), 1.5,
              1e-12);
}

TEST(Tdt2DateTest, HandlesMonthAndYearBoundaries) {
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19980301", 19980228).value(), 1.0);
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("19990101", 19981231).value(), 1.0);
  // 2000 was a leap year.
  EXPECT_DOUBLE_EQ(Tdt2DateToDays("20000301", 20000228).value(), 2.0);
}

TEST(Tdt2DateTest, RejectsGarbage) {
  EXPECT_FALSE(Tdt2DateToDays("not-a-date", 19980104).ok());
  EXPECT_FALSE(Tdt2DateToDays("1998", 19980104).ok());
  EXPECT_FALSE(Tdt2DateToDays("19981341", 19980104).ok());  // month 13
}

TEST(Tdt2SgmlTest, ParsesAllRecords) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  ASSERT_EQ(docs->size(), 3u);
  EXPECT_EQ((*docs)[0].docno, "APW19980104.0845");
  EXPECT_EQ((*docs)[1].docno, "CNN19980105.1600.0042");
  EXPECT_EQ((*docs)[2].docno, "NYT19980118.0001");
}

TEST(Tdt2SgmlTest, ExtractsDatesWithDocnoFallback) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok());
  EXPECT_NEAR((*docs)[0].time, 0.0 + (8.0 * 60 + 45) / 1440.0, 1e-9);
  // Second record has no DATE element; the DOCNO stamp is used.
  EXPECT_NEAR((*docs)[1].time, 1.0 + 16.0 / 24.0, 1e-9);
  EXPECT_DOUBLE_EQ((*docs)[2].time, 14.0);
}

TEST(Tdt2SgmlTest, StripsInnerMarkup) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ((*docs)[0].text.find('<'), std::string::npos);
  EXPECT_NE((*docs)[0].text.find("weapons inspectors left Iraq"),
            std::string::npos);
  EXPECT_NE((*docs)[0].text.find("standoff would continue"),
            std::string::npos);
}

TEST(Tdt2SgmlTest, InfersSources) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ((*docs)[0].source, "APW");
  EXPECT_EQ((*docs)[1].source, "CNN");
  EXPECT_EQ((*docs)[2].source, "NYT");
}

TEST(Tdt2SgmlTest, MissingDocnoIsError) {
  EXPECT_FALSE(ParseTdt2Sgml("<DOC><TEXT>orphan</TEXT></DOC>").ok());
}

TEST(Tdt2SgmlTest, MissingDocnoReportsRecordContext) {
  const std::string content =
      "<DOC><DOCNO> APW19980104.0845 </DOCNO><TEXT>fine</TEXT></DOC>\n"
      "<DOC><TEXT>orphan</TEXT></DOC>\n";
  auto docs = ParseTdt2Sgml(content);
  ASSERT_FALSE(docs.ok());
  // The diagnostic names the damaged record, not just "parse failed".
  EXPECT_NE(docs.status().message().find("DOC record #2"), std::string::npos);
}

TEST(Tdt2SgmlTest, LenientModeSkipsAndCountsBadRecords) {
  const std::string content =
      "<DOC><DOCNO> APW19980104.0845 </DOCNO><TEXT>kept one</TEXT></DOC>\n"
      "<DOC><TEXT>orphan without docno</TEXT></DOC>\n"
      "<DOC><DOCNO> NYT19980118.0001 </DOCNO><TEXT>kept two</TEXT></DOC>\n";
  CorpusReadOptions lenient;
  lenient.strict = false;
  CorpusReadStats stats;
  auto docs = ParseTdt2Sgml(content, 19980104, lenient, &stats);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  ASSERT_EQ(docs->size(), 2u);
  EXPECT_EQ((*docs)[0].docno, "APW19980104.0845");
  EXPECT_EQ((*docs)[1].docno, "NYT19980118.0001");
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.bad_records, 1u);
  EXPECT_NE(stats.first_error.find("DOC record #2"), std::string::npos);
}

TEST(Tdt2SgmlTest, EmptyInputYieldsNoDocs) {
  auto docs = ParseTdt2Sgml("no sgml here");
  ASSERT_TRUE(docs.ok());
  EXPECT_TRUE(docs->empty());
}

TEST(RelevanceTableTest, ParsesJudgments) {
  auto judgments = ParseRelevanceTable(
      "# topic docno level\n"
      "20001 APW19980104.0845 YES\n"
      "20002 APW19980104.0845 BRIEF\n"
      "\n"
      "20015 NYT19980118.0001 yes\n");
  ASSERT_TRUE(judgments.ok()) << judgments.status().ToString();
  ASSERT_EQ(judgments->size(), 3u);
  EXPECT_EQ((*judgments)[0].topic, 20001);
  EXPECT_TRUE((*judgments)[0].yes);
  EXPECT_FALSE((*judgments)[1].yes);
  EXPECT_TRUE((*judgments)[2].yes);  // lower-case level accepted
}

TEST(RelevanceTableTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRelevanceTable("20001 only-two-fields\n").ok());
  EXPECT_FALSE(ParseRelevanceTable("20001 doc MAYBE\n").ok());
}

TEST(RelevanceTableTest, LenientModeSkipsMalformedLines) {
  CorpusReadOptions lenient;
  lenient.strict = false;
  CorpusReadStats stats;
  auto judgments = ParseRelevanceTable(
      "20001 APW19980104.0845 YES\n"
      "20002 broken-line\n"
      "xxxxx NYT19980118.0001 YES\n"
      "20003 NYT19980118.0001 BRIEF\n",
      lenient, &stats);
  ASSERT_TRUE(judgments.ok()) << judgments.status().ToString();
  ASSERT_EQ(judgments->size(), 2u);
  EXPECT_EQ((*judgments)[0].topic, 20001);
  EXPECT_EQ((*judgments)[1].topic, 20003);
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.bad_records, 2u);
  EXPECT_NE(stats.first_error.find("line 2"), std::string::npos);
}

TEST(FilterSingleYesTest, PaperSelectionRule) {
  std::vector<Tdt2Judgment> judgments = {
      {20001, "docA", true},            // single YES -> kept
      {20002, "docB", true},
      {20003, "docB", true},            // two YES -> dropped
      {20004, "docC", false},           // only BRIEF -> dropped
      {20005, "docD", true},
      {20006, "docD", false},           // YES + BRIEF -> kept with YES topic
  };
  auto labels = FilterSingleYes(judgments);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.at("docA"), 20001);
  EXPECT_EQ(labels.at("docD"), 20005);
}

TEST(BuildCorpusTest, LabeledChronologicalCorpus) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok());
  std::map<std::string, TopicId> labels = {
      {"APW19980104.0845", 20015},
      {"NYT19980118.0001", 20044},
  };
  auto corpus = BuildCorpusFromTdt2(*docs, labels);
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ((*corpus)->size(), 2u);  // unlabeled CNN doc dropped
  EXPECT_TRUE((*corpus)->IsChronological());
  EXPECT_EQ((*corpus)->doc(0).topic, 20015);
  EXPECT_EQ((*corpus)->doc(1).topic, 20044);
  EXPECT_NE((*corpus)->vocabulary().Lookup("iraq"), kInvalidTermId);
}

TEST(BuildCorpusTest, KeepUnlabeledOption) {
  auto docs = ParseTdt2Sgml(kSampleSgml);
  ASSERT_TRUE(docs.ok());
  auto corpus = BuildCorpusFromTdt2(*docs, {}, /*keep_unlabeled=*/true);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ((*corpus)->size(), 3u);
  EXPECT_EQ((*corpus)->doc(0).topic, kNoTopic);
}

TEST(LoadTdt2FileTest, ReadsFromDisk) {
  const std::string path = TestTempPath("nidc_tdt2_test.sgml");
  FILE* f = fopen(path.c_str(), "w");
  fputs(kSampleSgml, f);
  fclose(f);
  auto docs = LoadTdt2File(path);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 3u);
  std::remove(path.c_str());
}

TEST(LoadTdt2FileTest, MissingFileFails) {
  EXPECT_EQ(LoadTdt2File("/no/such/file.sgml").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace nidc
