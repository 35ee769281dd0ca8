#include "nidc/text/tokenizer.h"

#include <gtest/gtest.h>

namespace nidc {
namespace {

TEST(TokenizerTest, LowerCasesAndSplits) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Hello World"),
            (std::vector<std::string>{"hello", "world"}));
}

TEST(TokenizerTest, SplitsOnPunctuation) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("news,articles;daily!"),
            (std::vector<std::string>{"news", "articles", "daily"}));
}

TEST(TokenizerTest, DropsPureNumbersByDefault) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("in 1998 there were 64400 documents"),
            (std::vector<std::string>{"in", "there", "were", "documents"}));
}

TEST(TokenizerTest, DropsSingleLetters) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("a b word x"), (std::vector<std::string>{"word"}));
}

TEST(TokenizerTest, StripsPossessive) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Clinton's speech"),
            (std::vector<std::string>{"clinton", "speech"}));
}

TEST(TokenizerTest, KeepsInternalApostrophe) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("O'Brien reported"),
            (std::vector<std::string>{"o'brien", "reported"}));
}

TEST(TokenizerTest, KeepsInternalHyphen) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("e-mail and follow-up"),
            (std::vector<std::string>{"e-mail", "and", "follow-up"}));
}

TEST(TokenizerTest, HyphenAtEdgesStripped) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("-lead trailing- -both-"),
            (std::vector<std::string>{"lead", "trailing", "both"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("   \t\n  ").empty());
  EXPECT_TRUE(t.Tokenize("... !!! ---").empty());
}

TEST(TokenizerTest, MaxLengthFiltersGarbageRuns) {
  Tokenizer t;
  const std::string at_max(64, 'x');
  EXPECT_EQ(t.Tokenize(at_max + " ok"),
            (std::vector<std::string>{at_max, "ok"}));
  EXPECT_EQ(t.Tokenize(at_max + "x ok"), (std::vector<std::string>{"ok"}));
}

TEST(TokenizerTest, MaxLengthAppliesAfterPossessiveStrip) {
  Tokenizer t;  // kMaxTokenLength 64
  const std::string at_max(64, 'a');
  EXPECT_EQ(t.Tokenize(at_max), (std::vector<std::string>{at_max}));
  EXPECT_TRUE(t.Tokenize(std::string(65, 'a')).empty());
  // 66 characters read, 64 left once "'s" is stripped.
  EXPECT_EQ(t.Tokenize(at_max + "'s"), (std::vector<std::string>{at_max}));
  EXPECT_TRUE(t.Tokenize(std::string(63, 'a') + "-bc").empty());
}

TEST(TokenizerTest, RunsBeyondAnyFixedBufferAreDroppedWhole) {
  Tokenizer t;
  const std::string run(300, 'q');
  EXPECT_EQ(t.Tokenize(run + " ok " + run + "'s " + run + "-x end"),
            (std::vector<std::string>{"ok", "end"}));
  // The buffer follows the run, so the cut falls exactly at the maximum
  // whatever came before: a 64-character run is kept, a 65-character one
  // is dropped whole.
  const std::string kept = "A" + std::string(63, 'q');
  const std::string dropped = "A" + std::string(64, 'q');
  EXPECT_EQ(t.Tokenize(run + " " + kept + " " + dropped + " " + kept),
            (std::vector<std::string>{"a" + std::string(63, 'q'),
                                      "a" + std::string(63, 'q')}));
}

TEST(TokenizerTest, HighBitBytesSeparateTokens) {
  Tokenizer t;
  // UTF-8 "café naïve — résumé": every byte >= 0x80 is a separator.
  EXPECT_EQ(t.Tokenize("caf\xc3\xa9 na\xc3\xafve \xe2\x80\x94 "
                       "R\xc3\xa9sum\xc3\xa9"),
            (std::vector<std::string>{"caf", "na", "ve", "sum"}));
  // A joiner before a high-bit byte is not internal.
  EXPECT_EQ(t.Tokenize("ab-\xc3\xa9 cd'\xff"),
            (std::vector<std::string>{"ab", "cd"}));
  EXPECT_TRUE(t.Tokenize("\x80\xff\xfe").empty());
}

TEST(TokenizerTest, MixedAlnumKept) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("tdt2 corpus"),
            (std::vector<std::string>{"tdt2", "corpus"}));
}

TEST(TokenizerTest, NewswireSentence) {
  Tokenizer t;
  const auto tokens = t.Tokenize(
      "WASHINGTON (AP) -- The President's advisers met on Jan. 21, 1998.");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"washington", "ap", "the", "president",
                                      "advisers", "met", "on", "jan"}));
}

}  // namespace
}  // namespace nidc
