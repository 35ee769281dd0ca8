// Seeded mutation fuzzing of the parsers recovery and explanations feed
// with bytes from disk, which an explanation reads beside a live writer:
// ParseState (snapshots), ParseResultSection (result sections) and the
// outcome records around them, DecodeCorpusIndexRecord (corpus records),
// ParseWal (WAL framing) and DecodeStepRecord (step records). Each starts
// from a real input and tries truncations, byte flips and token splices.
// Nothing may crash, and whatever parses must re-encode to bytes that
// parse to the same value: encoding what a parser accepted is a fixed
// point.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/corpus/corpus_io.h"
#include "nidc/store/torture.h"
#include "nidc/store/wal.h"
#include "nidc/util/random.h"
#include "fuzz_mutate.h"
#include "temp_path.h"

namespace nidc {
namespace {

constexpr int kMutationsPerKind = 1500;

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
    const size_t last = stream_.batches.size() - 1;
    outcome_ = EncodeStepOutcome(last, stream_.taus[last],
                                 stream_.batches[last],
                                 *clusterer.last_result());
    // A WAL as a store that logs documents writes it: a corpus record
    // ahead of the step records.
    std::vector<std::string> records = {record_};
    for (size_t i = 0; i < stream_.batches.size(); ++i) {
      records.push_back(
          EncodeStepRecord({stream_.taus[i], stream_.batches[i]}));
    }
    step_record_ = records.back();
    const std::string path = TestTempPath("nidc_fuzz_wal");
    EXPECT_TRUE(RewriteWal(Env::Default(), path, records).ok());
    wal_ = Env::Default()->ReadFileToString(path).value();
  }

  TortureStream stream_;
  IncrementalOptions options_;
  std::string state_;
  std::string result_;
  std::string record_;
  std::string outcome_;
  std::string step_record_;
  std::string wal_;
};

TEST_F(SnapshotFuzzTest, SeedsParse) {
  ASSERT_TRUE(ParseState(state_).ok());
  ASSERT_TRUE(ParseResultSection(result_).ok());
  ASSERT_TRUE(DecodeCorpusIndexRecord(record_).ok());
  ASSERT_TRUE(DecodeStepRecord(step_record_).ok());
  const WalReadResult wal = ParseWal(wal_);
  ASSERT_TRUE(wal.clean);
  ASSERT_EQ(wal.records.size(), stream_.batches.size() + 1);
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

TEST_F(SnapshotFuzzTest, TermIdBeyondTheVocabularyIsRefused) {
  // A flipped digit in a terms entry parses, and must be refused before
  // the term statistics size their arrays by the id.
  const size_t line = state_.find("\nterms ");
  ASSERT_NE(line, std::string::npos);
  // "terms", the count, then the first entry's id.
  const auto tokens = Tokens(std::string_view(state_).substr(line));
  ASSERT_GE(tokens.size(), 4u);
  const auto [id_begin, id_end] = tokens[2];
  std::string text = state_;
  text.replace(line + id_begin, id_end - id_begin, "4294967295");
  Result<ClustererState> state = ParseState(text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state->exact.term_sums.front().first, 4294967295u);
  auto restored = RestoreClusterer(stream_.corpus.get(), options_, *state);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().ToString().find("beyond the corpus vocabulary"),
            std::string::npos)
      << restored.status().ToString();
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

// The decoder accepts only what the encoder writes: installing an
// accepted record and encoding the installed span gives its bytes back,
// and every installed document is one AppendDocument writes the same
// bytes for, naming known terms in ascending order.
TEST_F(SnapshotFuzzTest, MutatedCorpusRecordsDecodeToAFixedPoint) {
  Rng rng(37);
  size_t installed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string payload = Mutate(record_, kind, /*text=*/false, rng);
      Result<CorpusIndexRecord> record = DecodeCorpusIndexRecord(payload);
      if (!record.ok()) continue;
      Corpus corpus;
      // A record that starts past term 0 cannot go into an empty corpus,
      // nor one that repeats a term.
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
          record->first_doc,
          static_cast<DocId>(record->first_doc + record->docs.size())};
      ASSERT_EQ(EncodeCorpusIndexRecord(corpus, span), payload)
          << "kind " << kind << " mutation " << i;
      Corpus rewritten;
      size_t entries = 0;
      for (const Document& doc : corpus.docs()) {
        std::vector<TermCounts::Entry> terms;
        for (const TermCounts::Entry& e : doc.terms) {
          ASSERT_LT(e.id, corpus.vocabulary().size());
          ASSERT_TRUE(terms.empty() || terms.back().id < e.id);
          ASSERT_GE(e.count, 1u);
          terms.push_back(e);
        }
        entries += terms.size();
        rewritten.Add(doc.time, doc.topic, doc.source,
                      TermCounts::FromSortedEntries(std::move(terms)));
      }
      EXPECT_EQ(entries, corpus.retained_term_entries());
      ASSERT_EQ(rewritten.DocumentBytes(0, static_cast<DocId>(
                                               rewritten.size())),
                record->docs.bytes)
          << "kind " << kind << " mutation " << i;
    }
  }
  EXPECT_GT(installed, 0u);
}

// Outcome records, read as recovery and explanations read them: the
// header line must key the step being replayed, and the rest must parse
// as a result section.
TEST_F(SnapshotFuzzTest, MutatedOutcomeRecordsParseToAFixedPoint) {
  const size_t last = stream_.batches.size() - 1;
  const std::string header = outcome_.substr(0, outcome_.find('\n') + 1);
  Rng rng(38);
  size_t parsed = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string text = Mutate(outcome_, kind, /*text=*/true, rng);
      if (text.compare(0, header.size(), header) != 0) continue;
      Result<ClusteringResult> result =
          ParseResultSection(std::string_view(text).substr(header.size()));
      if (!result.ok()) continue;
      ++parsed;
      const std::string encoded = EncodeStepOutcome(
          last, stream_.taus[last], stream_.batches[last], *result);
      ASSERT_EQ(encoded.compare(0, header.size(), header), 0);
      Result<ClusteringResult> again =
          ParseResultSection(std::string_view(encoded).substr(header.size()));
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
      ASSERT_EQ(EncodeStepOutcome(last, stream_.taus[last],
                                  stream_.batches[last], *again),
                encoded)
          << text;
    }
  }
  EXPECT_GT(parsed, 0u);
}

// WAL framing: the records a damaged file yields are its valid prefix,
// which reads back clean as exactly those records.
TEST_F(SnapshotFuzzTest, MutatedWalsParseToAFixedPoint) {
  Rng rng(39);
  size_t damaged = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string bytes = Mutate(wal_, kind, /*text=*/false, rng);
      const WalReadResult read = ParseWal(bytes);
      ASSERT_LE(read.dropped_bytes, bytes.size());
      if (!read.clean) ++damaged;
      const WalReadResult again =
          ParseWal(bytes.substr(0, bytes.size() - read.dropped_bytes));
      ASSERT_TRUE(again.clean) << "kind " << kind << " mutation " << i;
      ASSERT_EQ(again.records, read.records)
          << "kind " << kind << " mutation " << i;
      for (const std::string& record : read.records) {
        (void)DecodeStepRecord(record);
      }
    }
  }
  EXPECT_GT(damaged, 0u);
}

TEST_F(SnapshotFuzzTest, MutatedStepRecordsDecodeToAFixedPoint) {
  Rng rng(40);
  size_t decoded = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutationsPerKind; ++i) {
      const std::string payload =
          Mutate(step_record_, kind, /*text=*/true, rng);
      Result<WalStepRecord> record = DecodeStepRecord(payload);
      if (!record.ok()) continue;
      ++decoded;
      const std::string encoded = EncodeStepRecord(*record);
      Result<WalStepRecord> again = DecodeStepRecord(encoded);
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n"
                              << payload;
      ASSERT_EQ(EncodeStepRecord(*again), encoded) << payload;
    }
  }
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace nidc
