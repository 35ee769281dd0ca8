#include "nidc/synth/topic_language_model.h"

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "nidc/text/porter_stemmer.h"
#include "nidc/text/tokenizer.h"

namespace nidc {
namespace {

std::vector<TopicSpec> TwoTopics() {
  TopicSpec a;
  a.id = 1;
  a.name = "Topic A";
  a.shape = ActivityShape::FromWindowCounts({10});
  TopicSpec b;
  b.id = 2;
  b.name = "Topic B";
  b.shape = ActivityShape::FromWindowCounts({10});
  return {a, b};
}

TEST(WordFactoryTest, WordsAreDistinct) {
  WordFactory factory(1);
  std::set<std::string> words;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(words.insert(factory.MakeWord()).second);
  }
}

TEST(WordFactoryTest, WordsSurviveTokenizer) {
  WordFactory factory(2);
  Tokenizer tokenizer;
  for (int i = 0; i < 200; ++i) {
    const std::string word = factory.MakeWord();
    const auto tokens = tokenizer.Tokenize(word);
    ASSERT_EQ(tokens.size(), 1u) << word;
    EXPECT_EQ(tokens[0], word);
  }
}

TEST(WordFactoryTest, WordsAreMostlyStemmerInert) {
  // The synthetic language is designed so preprocessing keeps terms intact;
  // a small residual of accidental suffix matches is tolerated.
  WordFactory factory(3);
  PorterStemmer stemmer;
  int changed = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const std::string word = factory.MakeWord();
    if (stemmer.Stem(word) != word) ++changed;
  }
  EXPECT_LT(changed, n / 10);
}

TEST(WordFactoryTest, DeterministicPerSeed) {
  WordFactory a(7);
  WordFactory b(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.MakeWord(), b.MakeWord());
}

TEST(TopicLanguageModelTest, EveryTopicGetsItsVocabulary) {
  TopicLmOptions opts;
  opts.topic_vocab = 25;
  TopicLanguageModel lm(TwoTopics(), opts, 11);
  EXPECT_EQ(lm.TopicWords(1).size(), 25u);
  EXPECT_EQ(lm.TopicWords(2).size(), 25u);
  EXPECT_EQ(lm.background_words().size(), opts.background_vocab);
}

TEST(TopicLanguageModelTest, ZeroOverlapMakesVocabulariesDisjoint) {
  TopicLmOptions opts;
  opts.overlap_fraction = 0.0;
  TopicLanguageModel lm(TwoTopics(), opts, 13);
  std::set<std::string> a(lm.TopicWords(1).begin(), lm.TopicWords(1).end());
  for (const std::string& w : lm.TopicWords(2)) {
    EXPECT_FALSE(a.contains(w)) << w;
  }
  for (const std::string& w : lm.background_words()) {
    EXPECT_FALSE(a.contains(w)) << w;
  }
}

TEST(TopicLanguageModelTest, DefaultOverlapSharesPoolWords) {
  // With many topics drawing from a finite shared pool, some pair of
  // topics must share a vocabulary word (cross-topic confusability).
  std::vector<TopicSpec> topics;
  for (int i = 1; i <= 20; ++i) {
    TopicSpec t;
    t.id = i;
    const std::string index = std::to_string(i);
    t.name = "T" + index;
    t.shape = ActivityShape::FromWindowCounts({1});
    topics.push_back(std::move(t));
  }
  TopicLmOptions opts;
  opts.shared_topic_pool = 50;  // small pool forces collisions
  TopicLanguageModel lm(topics, opts, 13);
  size_t shared_pairs = 0;
  for (int i = 1; i <= 20; ++i) {
    std::set<std::string> a(lm.TopicWords(i).begin(),
                            lm.TopicWords(i).end());
    for (int j = i + 1; j <= 20; ++j) {
      for (const std::string& w : lm.TopicWords(j)) {
        if (a.contains(w)) {
          ++shared_pairs;
          break;
        }
      }
    }
  }
  EXPECT_GT(shared_pairs, 0u);
}

TEST(TopicLanguageModelTest, UniqueWordsStayTopicExclusive) {
  // Even with overlap on, each topic keeps unique signature words no other
  // topic carries.
  TopicLanguageModel lm(TwoTopics(), {}, 13);
  std::set<std::string> b(lm.TopicWords(2).begin(), lm.TopicWords(2).end());
  size_t exclusive = 0;
  for (const std::string& w : lm.TopicWords(1)) {
    if (!b.contains(w)) ++exclusive;
  }
  EXPECT_GT(exclusive, lm.options().topic_vocab / 2);
}

TEST(TopicLanguageModelTest, DocumentLengthWithinBounds) {
  TopicLmOptions opts;
  opts.doc_length_min = 30;
  opts.doc_length_max = 100;
  TopicLanguageModel lm(TwoTopics(), opts, 17);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const std::string text = lm.GenerateText(1, &rng);
    std::istringstream iss(text);
    size_t tokens = 0;
    std::string tok;
    while (iss >> tok) ++tokens;
    EXPECT_GE(tokens, 30u);
    EXPECT_LE(tokens, 100u);
  }
}

TEST(TopicLanguageModelTest, DocumentsMixTopicAndBackground) {
  TopicLmOptions opts;
  opts.topic_word_fraction = 0.5;
  opts.topic_fraction_jitter = 0.0;
  TopicLanguageModel lm(TwoTopics(), opts, 19);
  std::set<std::string> topic_words(lm.TopicWords(1).begin(),
                                    lm.TopicWords(1).end());
  Rng rng(2);
  size_t topical = 0;
  size_t total = 0;
  for (int i = 0; i < 50; ++i) {
    std::istringstream iss(lm.GenerateText(1, &rng));
    std::string tok;
    while (iss >> tok) {
      ++total;
      if (topic_words.contains(tok)) ++topical;
    }
  }
  const double fraction = static_cast<double>(topical) / total;
  EXPECT_NEAR(fraction, 0.5, 0.06);
}

TEST(TopicLanguageModelTest, SameTopicDocsShareMoreVocabulary) {
  TopicLanguageModel lm(TwoTopics(), {}, 23);
  Rng rng(3);
  auto tokens = [&](TopicId topic) {
    std::set<std::string> out;
    std::istringstream iss(lm.GenerateText(topic, &rng));
    std::string tok;
    while (iss >> tok) out.insert(tok);
    return out;
  };
  auto overlap = [](const std::set<std::string>& a,
                    const std::set<std::string>& b) {
    size_t n = 0;
    for (const auto& w : a) {
      if (b.contains(w)) ++n;
    }
    return n;
  };
  // Average over several draws to keep the test stable.
  size_t same = 0;
  size_t cross = 0;
  for (int i = 0; i < 10; ++i) {
    same += overlap(tokens(1), tokens(1));
    cross += overlap(tokens(1), tokens(2));
  }
  EXPECT_GT(same, cross);
}

TEST(TopicLanguageModelTest, GenerationDeterministicPerRngState) {
  TopicLanguageModel lm(TwoTopics(), {}, 29);
  Rng a(4);
  Rng b(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lm.GenerateText(1, &a), lm.GenerateText(1, &b));
  }
}

}  // namespace
}  // namespace nidc
