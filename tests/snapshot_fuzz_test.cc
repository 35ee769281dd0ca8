// Seeded mutation fuzzing of the parsers recovery feeds with bytes from
// disk: ParseState (snapshots), ParseResultSection (outcome-log records)
// and DecodeCorpusIndexRecord (corpus records). Each starts from a real
// text and tries truncations, byte flips and token splices. Nothing may
// crash, and whatever parses must re-encode to bytes that parse to the
// same value: encoding what a parser accepted is a fixed point.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/store/torture.h"
#include "nidc/util/random.h"

namespace nidc {
namespace {

constexpr int kMutationsPerKind = 1500;

// Tokens that stress counts and numbers when spliced in.
const char* const kHostileTokens[] = {
    "99999999999999", "18446744073709551615", "4294967296", "-1", "0",
    "nan",            "-nan",                 "inf",        "1e400",
    "0x1p+1024",      "0x0.0000000000001p-1022", "-0x0p+0", "none",
    "clusters",       "exact",                "cluster",    ""};

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

// [begin, end) of each whitespace-separated token of `text`.
std::vector<std::pair<size_t, size_t>> Tokens(std::string_view text) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    const size_t begin = i;
    while (i < text.size() && !IsSpace(text[i])) ++i;
    if (i > begin) tokens.emplace_back(begin, i);
  }
  return tokens;
}

// Mutation `kind` (0 truncate, 1 flip bytes, 2 splice) of `seed`. A text
// splices whole tokens, a binary record byte ranges.
std::string Mutate(const std::string& seed, int kind, bool text, Rng& rng) {
  std::string out = seed;
  if (kind == 0) {
    out.resize(rng.NextBounded(seed.size()));
  } else if (kind == 1) {
    const uint64_t flips = 1 + rng.NextBounded(4);
    for (uint64_t f = 0; f < flips; ++f) {
      out[rng.NextBounded(out.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
  } else if (text) {
    const std::vector<std::pair<size_t, size_t>> tokens = Tokens(seed);
    const auto [at, at_end] = tokens[rng.NextBounded(tokens.size())];
    std::string insert;
    if (rng.NextBounded(3) == 0) {
      insert = kHostileTokens[rng.NextBounded(std::size(kHostileTokens))];
    } else {
      // A run of up to four tokens from elsewhere in the text.
      const size_t from = rng.NextBounded(tokens.size());
      const size_t to =
          std::min(tokens.size(), from + 1 + rng.NextBounded(4)) - 1;
      insert = seed.substr(tokens[from].first,
                           tokens[to].second - tokens[from].first);
    }
    // Replace the token, or insert before it.
    const size_t replaced = rng.NextBounded(2) == 0 ? at_end - at : 0;
    out.replace(at, replaced, replaced == 0 ? insert + " " : insert);
  } else {
    const size_t from = rng.NextBounded(seed.size());
    const size_t length = 1 + rng.NextBounded(std::min<size_t>(
                                  16, seed.size() - from));
    const size_t at = rng.NextBounded(seed.size());
    const size_t replaced = rng.NextBounded(length + 1);
    out.replace(at, std::min(replaced, seed.size() - at),
                seed.substr(from, length));
  }
  return out;
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  SnapshotFuzzTest() {
    TortureOptions shape;
    shape.num_steps = 10;
    stream_ = BuildTortureStream(shape);
    options_.kmeans.k = shape.k;
    IncrementalClusterer clusterer(stream_.corpus.get(), shape.params,
                                   options_);
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      (void)clusterer.Step(stream_.batches[i], stream_.taus[i]);
    }
    state_ = SerializeState(CaptureState(clusterer));
    AppendResultSection(*clusterer.last_result(), &result_);
    const Corpus& corpus = *stream_.corpus;
    record_ = EncodeCorpusIndexRecord(
        corpus, {0, static_cast<TermId>(corpus.vocabulary().size()),
                 corpus.first_retained(), static_cast<DocId>(corpus.size())});
  }

  TortureStream stream_;
  IncrementalOptions options_;
  std::string state_;
  std::string result_;
  std::string record_;
};

TEST_F(SnapshotFuzzTest, SeedsParse) {
  ASSERT_TRUE(ParseState(state_).ok());
  ASSERT_TRUE(ParseResultSection(result_).ok());
  ASSERT_TRUE(DecodeCorpusIndexRecord(record_).ok());
}

TEST_F(SnapshotFuzzTest, MutatedStatesParseToAFixedPoint) {
  Rng rng(35);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string text = Mutate(state_, kind, /*text=*/true, rng);
      Result<ClustererState> state = ParseState(text);
      if (!state.ok()) continue;
      ++parsed;
      const std::string encoded = SerializeState(*state);
      Result<ClustererState> again = ParseState(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      ASSERT_EQ(SerializeState(*again), encoded) << text;
      // Restoring what parsed may refuse it, but must not crash.
      (void)RestoreClusterer(stream_.corpus.get(), options_, *state);
    }
  }
  // Some mutations (a flipped digit, a spliced id) still parse.
  EXPECT_GT(parsed, 0u);
}

TEST_F(SnapshotFuzzTest, MutatedResultSectionsParseToAFixedPoint) {
  Rng rng(36);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string text = Mutate(result_, kind, /*text=*/true, rng);
      Result<ClusteringResult> result = ParseResultSection(text);
      if (!result.ok()) continue;
      ++parsed;
      std::string encoded;
      AppendResultSection(*result, &encoded);
      Result<ClusteringResult> again = ParseResultSection(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      std::string reencoded;
      AppendResultSection(*again, &reencoded);
      ASSERT_EQ(reencoded, encoded) << text;
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST_F(SnapshotFuzzTest, MutatedCorpusRecordsDecodeToAFixedPoint) {
  Rng rng(37);
  size_t installed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string payload = Mutate(record_, kind, /*text=*/false, rng);
      Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
      if (!record.ok()) continue;
      const size_t num_docs = record->docs.size();
      Corpus corpus;
      if (!corpus
               .Install(record->first_term, record->terms, record->first_doc,
                        record->docs)
               .ok()) {
        continue;
      }
      ++installed;
      const CorpusIndexSpan span{
          record->first_term,
          static_cast<TermId>(record->first_term + record->terms.size()),
          record->first_doc, static_cast<DocId>(record->first_doc + num_docs)};
      const std::string encoded = EncodeCorpusIndexRecord(corpus, span);
      Result<CorpusIndexRecord> again = DecodeCorpusIndexRecord(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->terms, record->terms);
      ASSERT_EQ(again->docs.size(), num_docs);
      for (size_t d = 0; d < num_docs; ++d) {
        const Document& a = again->docs[d];
        const Document& b = record->docs[d];
        EXPECT_EQ(std::memcmp(&a.time, &b.time, sizeof(a.time)), 0);
        EXPECT_EQ(a.topic, b.topic);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.terms, b.terms);
      }
    }
  }
  EXPECT_GT(installed, 0u);
}

}  // namespace
}  // namespace nidc
