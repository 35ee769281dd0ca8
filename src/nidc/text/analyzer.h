// The full text-analysis pipeline: tokenize -> stop -> stem -> intern ->
// count. Produces the per-document term-frequency bag (f_ik in the paper).

#ifndef NIDC_TEXT_ANALYZER_H_
#define NIDC_TEXT_ANALYZER_H_

#include <cstdint>

#include <string>
#include <string_view>
#include <vector>

#include "nidc/text/porter_stemmer.h"
#include "nidc/text/stopwords.h"
#include "nidc/text/term_counts.h"
#include "nidc/text/tokenizer.h"
#include "nidc/text/vocabulary.h"

namespace nidc {

/// Pipeline configuration.
struct AnalyzerOptions {
  TokenizerOptions tokenizer;
  bool use_stopwords = true;
  bool use_stemming = true;
};

/// Token counts since construction.
struct AnalyzerStats {
  uint64_t tokens = 0;
  /// Tokens that were an interned term known to analyze to itself, and so
  /// cost one vocabulary probe.
  uint64_t fast_path_tokens = 0;
};

/// Turns raw text into term counts against a shared, growable Vocabulary.
/// Not thread-safe: the vocabulary and the analyzer's own scratch state
/// mutate.
class Analyzer {
 public:
  /// `vocabulary` must outlive the analyzer; it is grown as new terms appear.
  Analyzer(Vocabulary* vocabulary, AnalyzerOptions options = {});

  /// Analyzes `text` into term frequencies f_ik. Unknown terms are
  /// interned.
  TermCounts Analyze(std::string_view text);

  /// Analyzes against a frozen vocabulary: unseen terms are skipped instead
  /// of interned (useful for query-style lookups in tests).
  TermCounts AnalyzeFrozen(std::string_view text);

  const Vocabulary& vocabulary() const { return *vocabulary_; }
  const AnalyzerStats& stats() const { return stats_; }

 private:
  TermCounts AnalyzeImpl(std::string_view text, bool allow_grow);
  /// The term `token` analyzes to: its id, or kInvalidTermId when it is a
  /// stopword or (with `allow_grow` false) unknown.
  TermId TermOf(std::string_view token, bool allow_grow);

  Vocabulary* vocabulary_;
  AnalyzerOptions options_;
  Tokenizer tokenizer_;
  StopwordSet stopwords_;
  PorterStemmer stemmer_;
  // fixed_[id] != 0 once term `id` has been seen as a token that analyzed
  // to itself: not a stopword and its own stem. A token equal to such a
  // term skips stop/stem/intern. One byte per term; terms interned from
  // another surface form stay 0 until seen themselves.
  std::vector<uint8_t> fixed_;
  // Scratch reused across tokens and documents.
  std::string token_buffer_;
  std::string stem_buffer_;
  std::vector<TermId> ids_;
  AnalyzerStats stats_;
};

}  // namespace nidc

#endif  // NIDC_TEXT_ANALYZER_H_
