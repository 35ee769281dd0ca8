#include "nidc/synth/tdt2_like_generator.h"

#include <map>

#include <gtest/gtest.h>

namespace nidc {
namespace {

// Full-scale generation is a few seconds; share one corpus across tests.
class GeneratorTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new Tdt2LikeGenerator();
    auto corpus = generator_->Generate();
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = corpus.value().release();
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete generator_;
    corpus_ = nullptr;
    generator_ = nullptr;
  }

  static Tdt2LikeGenerator* generator_;
  static Corpus* corpus_;
};

Tdt2LikeGenerator* GeneratorTest::generator_ = nullptr;
Corpus* GeneratorTest::corpus_ = nullptr;

TEST_F(GeneratorTest, CorpusSizeMatchesPaper) {
  EXPECT_EQ(corpus_->size(), 7578u);
  EXPECT_EQ(corpus_->TopicCounts().size(), 96u);
}

TEST_F(GeneratorTest, ChronologicallySorted) {
  EXPECT_TRUE(corpus_->IsChronological());
}

TEST_F(GeneratorTest, WindowDocTotalsMatchTable2) {
  const size_t expected[6] = {1820, 2393, 823, 570, 1090, 882};
  auto windows = PaperWindows();
  for (size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(corpus_->DocsInRange(windows[w].begin, windows[w].end).size(),
              expected[w])
        << windows[w].label;
  }
}

TEST_F(GeneratorTest, NamedTopicCountsMatchTable5) {
  auto counts = corpus_->TopicCounts();
  EXPECT_EQ(counts[20001], 1034u);
  EXPECT_EQ(counts[20002], 923u);
  EXPECT_EQ(counts[20015], 1439u);
  EXPECT_EQ(counts[20074], 50u);
  EXPECT_EQ(counts[20077], 117u);
  EXPECT_EQ(counts[20078], 15u);
  EXPECT_EQ(counts[20086], 138u);
}

TEST_F(GeneratorTest, AllTimesWithinSpan) {
  EXPECT_GE(corpus_->MinTime(), 0.0);
  EXPECT_LT(corpus_->MaxTime(), 178.0);
}

TEST_F(GeneratorTest, SourcesCycleThroughNewswires) {
  std::map<std::string, size_t> sources;
  for (const Document& d : corpus_->docs()) ++sources[std::string(d.source)];
  EXPECT_EQ(sources.size(), 6u);
  for (const auto& [name, count] : sources) EXPECT_GT(count, 1000u);
}

TEST_F(GeneratorTest, UnabomberHistogramShape) {
  // Figure 6: bulk in the first half of window 1, resurgence late window 4.
  auto hist = TopicHistogram(*corpus_, 20077, 0.0, 178.0);
  size_t first_half_w1 = 0;
  size_t late_w4 = 0;
  size_t mid_span = 0;  // windows 2-3 (days 36..90) should be silent
  for (size_t day = 0; day < hist.size(); ++day) {
    if (day < 15) first_half_w1 += hist[day];
    if (day >= 110 && day < 120) late_w4 += hist[day];
    if (day >= 40 && day < 90) mid_span += hist[day];
  }
  EXPECT_EQ(first_half_w1, 95u);
  EXPECT_EQ(late_w4, 10u);
  EXPECT_EQ(mid_span, 0u);
}

TEST_F(GeneratorTest, DenmarkStrikeStraddlesWindows4And5) {
  auto hist = TopicHistogram(*corpus_, 20078, 0.0, 178.0);
  size_t in_range = 0;
  for (size_t day = 113; day < 127 && day < hist.size(); ++day) {
    in_range += hist[day];
  }
  EXPECT_EQ(in_range, 15u);  // every document in the narrow straddle
}

TEST_F(GeneratorTest, NigerianProtestDensestLateW4EarlyW6) {
  auto hist = TopicHistogram(*corpus_, 20074, 0.0, 178.0);
  size_t late_w4 = 0;
  size_t early_w6 = 0;
  for (size_t day = 110; day < 120; ++day) late_w4 += hist[day];
  for (size_t day = 150; day < 158; ++day) early_w6 += hist[day];
  EXPECT_EQ(late_w4, 20u);
  EXPECT_EQ(early_w6, 20u);
}

TEST_F(GeneratorTest, TopicNameLookup) {
  EXPECT_EQ(generator_->TopicName(20086), "GM Strike");
  EXPECT_EQ(generator_->TopicName(12345), "topic12345");
}

TEST(GeneratorOptionsTest, ScaleShrinksCorpus) {
  GeneratorOptions opts;
  opts.scale = 0.1;
  Tdt2LikeGenerator gen(opts);
  auto corpus = gen.Generate();
  ASSERT_TRUE(corpus.ok());
  // Rounding varies per topic; the total lands near 758.
  EXPECT_GT((*corpus)->size(), 500u);
  EXPECT_LT((*corpus)->size(), 1000u);
}

TEST(GeneratorOptionsTest, SameSeedSameCorpus) {
  GeneratorOptions opts;
  opts.scale = 0.05;
  Tdt2LikeGenerator a(opts);
  Tdt2LikeGenerator b(opts);
  auto raw_a = a.GenerateRaw();
  auto raw_b = b.GenerateRaw();
  ASSERT_TRUE(raw_a.ok());
  ASSERT_TRUE(raw_b.ok());
  ASSERT_EQ(raw_a->size(), raw_b->size());
  for (size_t i = 0; i < raw_a->size(); ++i) {
    EXPECT_EQ((*raw_a)[i].text, (*raw_b)[i].text);
    EXPECT_DOUBLE_EQ((*raw_a)[i].time, (*raw_b)[i].time);
  }
}

TEST(GeneratorOptionsTest, DifferentSeedsDifferentCorpora) {
  GeneratorOptions a_opts;
  a_opts.scale = 0.05;
  a_opts.seed = 1;
  GeneratorOptions b_opts = a_opts;
  b_opts.seed = 2;
  auto raw_a = Tdt2LikeGenerator(a_opts).GenerateRaw();
  auto raw_b = Tdt2LikeGenerator(b_opts).GenerateRaw();
  ASSERT_TRUE(raw_a.ok());
  ASSERT_TRUE(raw_b.ok());
  bool any_diff = raw_a->size() != raw_b->size();
  for (size_t i = 0; !any_diff && i < raw_a->size(); ++i) {
    any_diff = (*raw_a)[i].text != (*raw_b)[i].text;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorOptionsTest, InvalidScaleRejected) {
  GeneratorOptions opts;
  opts.scale = 0.0;
  EXPECT_FALSE(Tdt2LikeGenerator(opts).Generate().ok());
}

}  // namespace
}  // namespace nidc
