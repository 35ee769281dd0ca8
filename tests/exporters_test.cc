#include "nidc/obs/exporters.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"

namespace nidc::obs {
namespace {

TEST(JsonUtilTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(JsonUtilTest, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(2.0), "2");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  const double value = 0.1234567890123456;
  const auto parsed = ParseJson(JsonNumber(value));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->number, value);
}

TEST(JsonUtilTest, BuilderRoundTripsThroughParser) {
  JsonObjectBuilder builder;
  builder.Add("label", std::string("he said \"hi\""))
      .Add("pi", 3.25)
      .Add("count", uint64_t{7})
      .Add("step", -2)
      .Add("ok", true)
      .AddRaw("list", "[1,2,3]");
  const auto parsed = ParseJson(builder.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Find("label")->string_value, "he said \"hi\"");
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->number, 3.25);
  EXPECT_DOUBLE_EQ(parsed->Find("count")->number, 7.0);
  EXPECT_DOUBLE_EQ(parsed->Find("step")->number, -2.0);
  EXPECT_TRUE(parsed->Find("ok")->bool_value);
  ASSERT_TRUE(parsed->Find("list")->is_array());
  EXPECT_EQ(parsed->Find("list")->array.size(), 3u);
}

TEST(JsonUtilTest, ParserRejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("").ok());
}

std::vector<MetricSample> SampleRegistry() {
  MetricsRegistry registry;
  registry.GetCounter("kmeans.runs")->Increment(2);
  registry.GetGauge("kmeans.g_final")->Set(41.5);
  Histogram* h = registry.GetHistogram("step.seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(5.0);
  return registry.Snapshot();
}

TEST(ExportersTest, MetricsJsonRoundTripsThroughParser) {
  const std::string json = RenderMetricsJson(SampleRegistry());
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_DOUBLE_EQ(parsed->Find("kmeans.runs")->number, 2.0);
  EXPECT_DOUBLE_EQ(parsed->Find("kmeans.g_final")->number, 41.5);
  const JsonValue* hist = parsed->Find("step.seconds");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 5.05);
  ASSERT_TRUE(hist->Find("buckets")->is_array());
  const auto& buckets = hist->Find("buckets")->array;
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].Find("le")->number, 0.1);
  EXPECT_DOUBLE_EQ(buckets[0].Find("count")->number, 1.0);
}

TEST(ExportersTest, PrometheusFlattensNamesAndExpandsHistograms) {
  const std::string text = RenderPrometheus(SampleRegistry());
  EXPECT_NE(text.find("# TYPE kmeans_runs counter"), std::string::npos);
  EXPECT_NE(text.find("kmeans_runs 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kmeans_g_final gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE step_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("step_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("step_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("step_seconds_count 2"), std::string::npos);
}

TEST(ExportersTest, PrometheusNameValidatesAndFlattensMalformedNames) {
  // The flattened form of any registry name must pass the exposition
  // charset check — including names with spaces, leading digits, unicode
  // and empties.
  const char* kMalformed[] = {"9kmeans.bad name", "a b", "Ω.metric",
                              "", "kmeans.ok", "trailing dot."};
  for (const char* name : kMalformed) {
    EXPECT_TRUE(IsValidPrometheusName(PrometheusName(name)))
        << "'" << name << "' -> '" << PrometheusName(name) << "'";
  }
  EXPECT_EQ(PrometheusName("9kmeans.bad name"), "_9kmeans_bad_name");
  EXPECT_EQ(PrometheusName(""), "_");
  EXPECT_FALSE(IsValidPrometheusName("9leading"));
  EXPECT_FALSE(IsValidPrometheusName("has space"));
  EXPECT_FALSE(IsValidPrometheusName(""));
  EXPECT_TRUE(IsValidPrometheusName("kmeans_runs:rate"));
}

TEST(ExportersTest, PrometheusEscapesHelpAndLabelText) {
  EXPECT_EQ(PrometheusEscapeHelp("plain help"), "plain help");
  EXPECT_EQ(PrometheusEscapeHelp("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(PrometheusEscapeHelp("back\\slash"), "back\\\\slash");
  // HELP text keeps quotes verbatim (only label values escape them).
  EXPECT_EQ(PrometheusEscapeHelp("say \"hi\""), "say \"hi\"");
  EXPECT_EQ(PrometheusEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b\nc"), "a\\\\b\\nc");
}

TEST(ExportersTest, PrometheusEmitsEscapedHelpForEveryMetric) {
  std::map<std::string, std::string> help;
  help["kmeans.runs"] = "RunExtendedKMeans calls\nsecond line \\ slash";
  const std::string text = RenderPrometheus(SampleRegistry(), help);
  // Explicit help: escaped onto one line.
  EXPECT_NE(
      text.find(
          "# HELP kmeans_runs RunExtendedKMeans calls\\nsecond line "
          "\\\\ slash\n"),
      std::string::npos);
  // Metrics without explicit help still get a HELP line (family default).
  EXPECT_NE(text.find("# HELP kmeans_g_final "), std::string::npos);
  EXPECT_NE(text.find("# HELP step_seconds "), std::string::npos);
  // No raw newline may survive inside any HELP line: every line must
  // start with a name, '#', or be a sample — i.e. parse as exposition.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Sample line: the token before ' ' or '{' must validate.
    const size_t cut = line.find_first_of(" {");
    ASSERT_NE(cut, std::string::npos) << line;
    EXPECT_TRUE(IsValidPrometheusName(line.substr(0, cut))) << line;
  }
}

TEST(ExportersTest, PrometheusMalformedRegistryNamesStillValidate) {
  // Regression: a registry name outside the exposition charset must be
  // flattened everywhere it appears — TYPE/HELP lines and samples alike.
  MetricsRegistry registry;
  registry.GetCounter("9kmeans.bad name")->Increment(3);
  registry.GetHistogram("2nd histogram", {1.0})->Observe(0.5);
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE _9kmeans_bad_name counter"),
            std::string::npos);
  EXPECT_NE(text.find("_9kmeans_bad_name 3"), std::string::npos);
  EXPECT_NE(text.find("_2nd_histogram_bucket{le=\"1\"} 1"),
            std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Comment lines may mention the original registry name in their
      // free-text HELP, but the *exposition name* after HELP/TYPE must
      // be the flattened one.
      EXPECT_EQ(line.find("# HELP 9"), std::string::npos) << line;
      EXPECT_EQ(line.find("# TYPE 9"), std::string::npos) << line;
      continue;
    }
    // Sample lines must carry only valid flattened names — the raw
    // registry spellings may never reach a scrapeable sample.
    EXPECT_EQ(line.find("9kmeans."), std::string::npos) << line;
    EXPECT_EQ(line.find("bad name"), std::string::npos) << line;
    const size_t cut = line.find_first_of(" {");
    ASSERT_NE(cut, std::string::npos) << line;
    EXPECT_TRUE(IsValidPrometheusName(line.substr(0, cut))) << line;
  }
}

TEST(ExportersTest, JsonlWriterEmitsOneParseableRecordPerLine) {
  const std::string path = testing::TempDir() + "exporters_test.jsonl";
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.Append(RenderMetricsJson(SampleRegistry())).ok());
    ASSERT_TRUE(writer.Append("{\"step\":1}").ok());
    EXPECT_EQ(writer.lines_written(), 2u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(ParseJson(line).ok()) << "line " << lines << ": " << line;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(ExportersTest, CsvSeriesKeepsColumnsStableAcrossSteps) {
  MetricsCsvSeries series;
  {
    MetricsRegistry registry;
    registry.GetCounter("a")->Increment();
    registry.GetGauge("b")->Set(2.0);
    registry.GetHistogram("h", {1.0})->Observe(0.5);
    series.AddStep(0, registry.Snapshot());
  }
  {
    // Second step misses "b" and adds an unseen metric — the column set
    // must stay what the first snapshot established.
    MetricsRegistry registry;
    registry.GetCounter("a")->Increment(3);
    registry.GetCounter("unseen")->Increment();
    registry.GetHistogram("h", {1.0})->Observe(2.0);
    series.AddStep(1, registry.Snapshot());
  }
  EXPECT_EQ(series.num_steps(), 2u);
  const std::string csv = series.ToString();
  std::istringstream in(csv);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "step,a,b,h.count,h.sum");
  std::string row0, row1;
  ASSERT_TRUE(std::getline(in, row0));
  ASSERT_TRUE(std::getline(in, row1));
  EXPECT_EQ(row0.substr(0, 2), "0,");
  EXPECT_EQ(row1.substr(0, 2), "1,");
  EXPECT_EQ(row1.find("unseen"), std::string::npos);
}

}  // namespace
}  // namespace nidc::obs
