// Porter stemming algorithm (M.F. Porter, "An algorithm for suffix
// stripping", Program 14(3), 1980) — the standard stemmer in IR systems of
// the TDT era. Full five-step implementation, not a truncation heuristic.

#ifndef NIDC_TEXT_PORTER_STEMMER_H_
#define NIDC_TEXT_PORTER_STEMMER_H_

#include <string>
#include <string_view>

namespace nidc {

/// Stateless Porter stemmer for lower-case ASCII words.
class PorterStemmer {
 public:
  /// Returns the stem of `word`. Words shorter than 3 characters and words
  /// containing non-alphabetic characters are returned unchanged (hyphenated
  /// compounds etc. pass through, matching classic IR toolkit behaviour).
  std::string Stem(std::string_view word) const;

  /// Replaces `*word` with its stem. Allocates nothing when `word` has
  /// room for one character more than its length (step 1b can grow the
  /// word by one before the result is cut back).
  void StemInPlace(std::string* word) const;
};

}  // namespace nidc

#endif  // NIDC_TEXT_PORTER_STEMMER_H_
