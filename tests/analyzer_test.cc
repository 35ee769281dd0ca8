#include "nidc/text/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "nidc/synth/tdt2_like_generator.h"
#include "nidc/util/random.h"
#include "sparse_value.h"
#include "vocabulary_terms.h"

namespace nidc {
namespace {

TEST(AnalyzerTest, CountsTermFrequencies) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  TermCounts v = analyzer.Analyze("bomb bomb explosion");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(ValueAt(v, vocab.Lookup("bomb")), 2.0);
  EXPECT_DOUBLE_EQ(ValueAt(v, vocab.Lookup("explos")), 1.0);  // stemmed
}

TEST(AnalyzerTest, RemovesStopwords) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  TermCounts v = analyzer.Analyze("the president and the senate");
  EXPECT_EQ(vocab.Lookup("the"), kInvalidTermId);
  EXPECT_EQ(vocab.Lookup("and"), kInvalidTermId);
  EXPECT_EQ(TotalCount(v), 2.0);  // president + senate (senat)
}

TEST(AnalyzerTest, StemmingMergesInflections) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  TermCounts v = analyzer.Analyze("elections election elected");
  // "elections"/"election" -> "elect"...; at minimum all three share a stem.
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.entries()[0].count, 3u);
}

TEST(AnalyzerTest, StemmingCanBeDisabled) {
  Vocabulary vocab;
  AnalyzerOptions opts;
  opts.use_stemming = false;
  Analyzer analyzer(&vocab, opts);
  TermCounts v = analyzer.Analyze("elections election");
  EXPECT_EQ(v.size(), 2u);
}

TEST(AnalyzerTest, StopwordsCanBeDisabled) {
  Vocabulary vocab;
  AnalyzerOptions opts;
  opts.use_stopwords = false;
  Analyzer analyzer(&vocab, opts);
  analyzer.Analyze("the and of");
  EXPECT_NE(vocab.Lookup("the"), kInvalidTermId);
}

TEST(AnalyzerTest, DefaultOptionsShareOneStopwordSet) {
  // Every analyzer with stopping on reads the one process-wide default set
  // instead of a copy of its own, and drops the same words through it.
  Vocabulary vocab_a;
  Vocabulary vocab_b;
  Analyzer a(&vocab_a);
  Analyzer b(&vocab_b);
  ASSERT_NE(a.stopwords(), nullptr);
  EXPECT_EQ(a.stopwords(), b.stopwords());
  EXPECT_EQ(a.stopwords(), &StopwordSet::Default());
  const TermCounts va = a.Analyze("the president and the senate of it");
  const TermCounts vb = b.Analyze("the president and the senate of it");
  EXPECT_EQ(TotalCount(va), 2.0);
  EXPECT_EQ(TotalCount(vb), 2.0);
  for (const char* word : {"the", "and", "of", "it"}) {
    EXPECT_EQ(vocab_a.Lookup(word), kInvalidTermId) << word;
    EXPECT_EQ(vocab_b.Lookup(word), kInvalidTermId) << word;
  }
  AnalyzerOptions no_stop;
  no_stop.use_stopwords = false;
  EXPECT_EQ(Analyzer(&vocab_a, no_stop).stopwords(), nullptr);
}

TEST(AnalyzerTest, SharedVocabularyAcrossDocuments) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  TermCounts a = analyzer.Analyze("iraq weapons inspection");
  TermCounts b = analyzer.Analyze("iraq sanctions");
  const TermId iraq = vocab.Lookup("iraq");
  ASSERT_NE(iraq, kInvalidTermId);
  EXPECT_DOUBLE_EQ(ValueAt(a, iraq), 1.0);
  EXPECT_DOUBLE_EQ(ValueAt(b, iraq), 1.0);
}

TEST(AnalyzerTest, FrozenAnalysisSkipsUnknownTerms) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  analyzer.Analyze("known word");
  const size_t before = vocab.size();
  TermCounts v = analyzer.AnalyzeFrozen("known brandnewterm");
  EXPECT_EQ(vocab.size(), before);
  EXPECT_EQ(TotalCount(v), 1.0);
}

TEST(AnalyzerTest, EmptyTextYieldsEmptyVector) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  EXPECT_TRUE(analyzer.Analyze("").empty());
  EXPECT_TRUE(analyzer.Analyze("the of and").empty());  // all stopwords
}

TEST(AnalyzerTest, RealisticNewsLead) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  TermCounts v = analyzer.Analyze(
      "BAGHDAD, Iraq (CNN) -- U.N. weapons inspectors left Iraq on Wednesday "
      "after Iraqi officials refused to allow inspections of presidential "
      "sites, officials said.");
  const TermId iraq = vocab.Lookup("iraq");
  ASSERT_NE(iraq, kInvalidTermId);
  // "Iraq" appears twice plus "Iraqi" stems to "iraqi" (distinct stem).
  EXPECT_GE(ValueAt(v, iraq), 2.0);
  EXPECT_GT(TotalCount(v), 10.0);
}

TEST(AnalyzerTest, RepeatedTermsTakeTheFastPath) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  analyzer.Analyze("bomb bomb the bombing");
  // "bomb" is interned and fixed by its first token; the second is one
  // probe. "the" is stopped and "bombing" stems to "bomb" the long way.
  EXPECT_EQ(analyzer.stats().tokens, 4u);
  EXPECT_EQ(analyzer.stats().fast_path_tokens, 1u);
}

// ---- Differential tests against the pipeline built from its parts ----

// tokenize -> stop -> stem -> intern -> count, from the public pieces and
// with owned strings throughout: the definition Analyze must match.
class ReferenceAnalyzer {
 public:
  ReferenceAnalyzer(Vocabulary* vocabulary, AnalyzerOptions options)
      : vocabulary_(vocabulary),
        options_(options),
        tokenizer_(options.tokenizer),
        stopwords_(options.use_stopwords ? StopwordSet::Default()
                                         : StopwordSet::Empty()) {}

  TermCounts Analyze(std::string_view text, bool allow_grow) {
    std::map<TermId, uint32_t> counts;
    for (const std::string& token : tokenizer_.Tokenize(text)) {
      if (options_.use_stopwords && stopwords_.Contains(token)) continue;
      const std::string term =
          options_.use_stemming ? stemmer_.Stem(token) : token;
      if (term.empty()) continue;
      const TermId id = allow_grow ? vocabulary_->GetOrAdd(term)
                                   : vocabulary_->Lookup(term);
      if (id != kInvalidTermId) ++counts[id];
    }
    std::vector<TermCounts::Entry> entries;
    for (const auto& [id, count] : counts) entries.push_back({id, count});
    return TermCounts::FromSortedEntries(std::move(entries));
  }

 private:
  Vocabulary* vocabulary_;
  AnalyzerOptions options_;
  Tokenizer tokenizer_;
  StopwordSet stopwords_;
  PorterStemmer stemmer_;
};

// Analyzes `texts` twice over (the second pass mostly on the fast path),
// then once frozen, through Analyze and through the reference, each on its
// own vocabulary. Ids, values and the final vocabulary order must agree.
void ExpectMatchesReference(const std::vector<std::string>& texts,
                            AnalyzerOptions options = {}) {
  Vocabulary vocab;
  Vocabulary reference_vocab;
  Analyzer analyzer(&vocab, options);
  ReferenceAnalyzer reference(&reference_vocab, options);
  for (int pass = 0; pass < 3; ++pass) {
    const bool grow = pass < 2;
    for (size_t i = 0; i < texts.size(); ++i) {
      const TermCounts got =
          grow ? analyzer.Analyze(texts[i]) : analyzer.AnalyzeFrozen(texts[i]);
      ASSERT_EQ(got, reference.Analyze(texts[i], grow))
          << "pass " << pass << ", text " << i << ": " << texts[i];
      ASSERT_EQ(got.entries().capacity(), got.size()) << "text " << i;
    }
  }
  EXPECT_EQ(Terms(vocab), Terms(reference_vocab));
}

std::vector<std::string> EnglishLines() {
  std::vector<std::filesystem::path> files = {
      std::filesystem::path(NIDC_SOURCE_DIR) / "PAPER.md"};
  std::vector<std::filesystem::path> docs;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(NIDC_SOURCE_DIR) / "docs")) {
    if (entry.path().extension() == ".md") docs.push_back(entry.path());
  }
  std::sort(docs.begin(), docs.end());
  files.insert(files.end(), docs.begin(), docs.end());
  std::vector<std::string> lines;
  for (const auto& file : files) {
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  return lines;
}

TEST(AnalyzerDifferentialTest, EnglishProse) {
  const std::vector<std::string> lines = EnglishLines();
  ASSERT_GT(lines.size(), 500u);
  ExpectMatchesReference(lines);
  AnalyzerOptions no_stemming;
  no_stemming.use_stemming = false;
  ExpectMatchesReference(lines, no_stemming);
  AnalyzerOptions no_stopwords;
  no_stopwords.use_stopwords = false;
  ExpectMatchesReference(lines, no_stopwords);
}

TEST(AnalyzerDifferentialTest, SyntheticCorpus) {
  GeneratorOptions generator;
  generator.scale = 0.02;
  Result<std::vector<RawDocument>> raw =
      Tdt2LikeGenerator(generator).GenerateRaw();
  ASSERT_TRUE(raw.ok());
  std::vector<std::string> texts;
  for (const RawDocument& doc : *raw) texts.push_back(doc.text);
  ASSERT_GT(texts.size(), 100u);
  ExpectMatchesReference(texts);
}

// Text built to hit the tokenizer's edges: runs around and far beyond
// max_length, "'s" suffixes, inner and outer joiners, digit-only runs,
// bytes >= 0x80, and words with inflections and stopword stems.
std::string RandomText(Rng& rng) {
  static const char* const kWords[] = {
      "run",       "running", "runs",   "ones",      "on",     "used",
      "us",        "the",     "agreed", "agre",      "increases",
      "increas",   "Clinton", "o'brien", "e-mail",   "follow-up",
      "tdt2",      "U.N.",    "Iraq's", "elections", "elect",  "x",
  };
  static const char kSeparators[] = " ,.;:!?()\t\n\"/-'";
  std::string text;
  const uint64_t parts = 1 + rng.NextBounded(40);
  for (uint64_t p = 0; p < parts; ++p) {
    switch (rng.NextBounded(6)) {
      case 0: {  // A letter run of length near 64 or beyond 256.
        static const size_t kLengths[] = {62, 63, 64, 65, 66, 257, 300};
        const size_t length = kLengths[rng.NextBounded(7)];
        for (size_t i = 0; i < length; ++i) {
          text += static_cast<char>('a' + rng.NextBounded(3));
        }
        if (rng.NextBounded(2) == 0) text += "'s";
        break;
      }
      case 1:  // A digit-only run.
        for (uint64_t i = 0, n = 1 + rng.NextBounded(8); i < n; ++i) {
          text += static_cast<char>('0' + rng.NextBounded(10));
        }
        break;
      case 2:  // High-bit bytes, alone or inside a word.
        if (rng.NextBounded(2) == 0) text += "caf";
        for (uint64_t i = 0, n = 1 + rng.NextBounded(3); i < n; ++i) {
          text += static_cast<char>(0x80 + rng.NextBounded(128));
        }
        break;
      case 3:  // Joiners and possessives in every position.
        for (uint64_t i = 0, n = 1 + rng.NextBounded(6); i < n; ++i) {
          static const char* const kBits[] = {"-", "'", "'s", "ab", "Z", "9"};
          text += kBits[rng.NextBounded(6)];
        }
        break;
      default:
        text += kWords[rng.NextBounded(std::size(kWords))];
        break;
    }
    if (rng.NextBounded(4) != 0) {
      text += kSeparators[rng.NextBounded(sizeof(kSeparators) - 1)];
    }
  }
  return text;
}

TEST(AnalyzerDifferentialTest, RandomBytes) {
  Rng rng(20261017);
  std::vector<std::string> texts;
  for (int i = 0; i < 2000; ++i) texts.push_back(RandomText(rng));
  ExpectMatchesReference(texts);
  AnalyzerOptions split_joiners;
  split_joiners.tokenizer.keep_internal_hyphen = false;
  split_joiners.tokenizer.keep_internal_apostrophe = false;
  split_joiners.tokenizer.drop_numbers = false;
  ExpectMatchesReference(texts, split_joiners);
}

TEST(AnalyzerDifferentialTest, TermInternedFromAnotherFormIsNotFixed) {
  // "increases" interns "increas", which is not its own stem: seen as a
  // token itself it must still be stemmed ("increa"), not taken as is.
  PorterStemmer stemmer;
  ASSERT_EQ(stemmer.Stem("increases"), "increas");
  ASSERT_NE(stemmer.Stem("increas"), "increas");
  // "used" interns "us", a stopword: seen as a token it must be stopped.
  ASSERT_EQ(stemmer.Stem("used"), "us");
  ASSERT_TRUE(StopwordSet::Default().Contains("us"));
  ExpectMatchesReference({"increases used", "increas us", "increas us"});
}

TEST(AnalyzerDifferentialTest, FrozenAnalysisAfterFastPath) {
  Vocabulary vocab;
  Analyzer analyzer(&vocab);
  analyzer.Analyze("bomb bomb bombing increases used");
  ASSERT_GT(analyzer.stats().fast_path_tokens, 0u);
  Vocabulary reference_vocab;
  ReferenceAnalyzer reference(&reference_vocab, {});
  reference.Analyze("bomb bomb bombing increases used", true);
  const char* const kQueries[] = {"bomb bombs increas us unknownterm",
                                  "used bomb", "the of"};
  for (const char* query : kQueries) {
    EXPECT_EQ(analyzer.AnalyzeFrozen(query), reference.Analyze(query, false))
        << query;
  }
  EXPECT_EQ(Terms(vocab), Terms(reference_vocab));
}

}  // namespace
}  // namespace nidc
