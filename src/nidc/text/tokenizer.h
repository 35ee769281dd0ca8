// Newswire-oriented tokenizer: lower-cases, splits on non-alphanumerics,
// keeps internal apostrophes/hyphens joined per the common IR convention of
// the TDT era, and drops pure numbers and single letters by default.

#ifndef NIDC_TEXT_TOKENIZER_H_
#define NIDC_TEXT_TOKENIZER_H_

#include <cstddef>

#include <string>
#include <string_view>
#include <vector>

namespace nidc {

/// Tokenizer configuration.
struct TokenizerOptions {
  /// Drop tokens consisting only of digits ("1998").
  bool drop_numbers = true;
  /// Minimum token length after normalization.
  size_t min_length = 2;
  /// Maximum token length (guards against garbage runs).
  size_t max_length = 64;
  /// Keep hyphenated compounds as one token ("e-mail" -> "e-mail").
  bool keep_internal_hyphen = true;
  /// Keep possessive-free apostrophe compounds ("o'brien" -> "o'brien");
  /// trailing "'s" is stripped either way.
  bool keep_internal_apostrophe = true;
};

/// Converts raw text into normalized word tokens. Word characters are the
/// ASCII letters and digits; every other byte, including bytes >= 0x80,
/// separates tokens.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  /// Calls `emit(std::string_view token)` for each token of `text`, in
  /// order. Tokens are lower-cased ASCII words built in `*buffer`, which
  /// is reused from token to token, so a view is valid only until `emit`
  /// returns. Once the buffer has grown to the longest run, tokenizing
  /// allocates nothing.
  template <typename Emit>
  void ForEachToken(std::string_view text, std::string* buffer,
                    Emit&& emit) const;

  /// Tokenizes `text` into owned strings (ForEachToken, collected).
  std::vector<std::string> Tokenize(std::string_view text) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  static bool IsWordChar(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z');
  }

  bool KeepsJoiner(char c) const {
    return (c == '-' && options_.keep_internal_hyphen) ||
           (c == '\'' && options_.keep_internal_apostrophe);
  }

  /// Strips the possessive and stray joiners from a raw token, then
  /// applies the length/number filters; returns false if it is dropped.
  bool Finish(std::string_view* token) const;

  TokenizerOptions options_;
};

template <typename Emit>
void Tokenizer::ForEachToken(std::string_view text, std::string* buffer,
                             Emit&& emit) const {
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    if (!IsWordChar(text[i])) {
      ++i;
      continue;
    }
    // A token starts at a word character and runs over word characters;
    // a joiner stays inside only when a word character follows it.
    buffer->clear();
    while (i < n) {
      const char c = text[i];
      if (IsWordChar(c)) {
        buffer->push_back(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
      } else if (KeepsJoiner(c) && i + 1 < n && IsWordChar(text[i + 1])) {
        buffer->push_back(c);
      } else {
        break;
      }
      ++i;
    }
    std::string_view token = *buffer;
    if (Finish(&token)) emit(token);
  }
}

}  // namespace nidc

#endif  // NIDC_TEXT_TOKENIZER_H_
