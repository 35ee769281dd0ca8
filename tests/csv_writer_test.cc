#include "nidc/util/csv_writer.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_path.h"

namespace nidc {
namespace {

TEST(CsvWriterTest, HeaderAndRows) {
  CsvWriter w({"day", "count"});
  w.AddRow({"1", "10"});
  w.AddRow({"2", "20"});
  EXPECT_EQ(w.ToString(), "day,count\n1,10\n2,20\n");
}

TEST(CsvWriterTest, EscapesCommas) {
  EXPECT_EQ(CsvWriter::EscapeCell("a,b"), "\"a,b\"");
}

TEST(CsvWriterTest, EscapesQuotes) {
  EXPECT_EQ(CsvWriter::EscapeCell("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, EscapesNewlines) {
  EXPECT_EQ(CsvWriter::EscapeCell("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, PlainCellsUntouched) {
  EXPECT_EQ(CsvWriter::EscapeCell("plain"), "plain");
  EXPECT_EQ(CsvWriter::EscapeCell(""), "");
}

TEST(CsvWriterTest, WritesFile) {
  const std::string path = TestTempPath("nidc_csv_test.csv");
  CsvWriter w({"x"});
  w.AddRow({"1"});
  ASSERT_TRUE(w.WriteFile(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "x\n1\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, WriteToBadPathFails) {
  CsvWriter w({"x"});
  const Status s = w.WriteFile("/nonexistent_dir_zzz/file.csv");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace nidc
