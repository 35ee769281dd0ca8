// Newswire-oriented tokenizer: lower-cases, splits on non-alphanumerics,
// keeps internal apostrophes/hyphens joined per the common IR convention of
// the TDT era, and drops pure numbers and single letters.

#ifndef NIDC_TEXT_TOKENIZER_H_
#define NIDC_TEXT_TOKENIZER_H_

#include <cstddef>

#include <string>
#include <string_view>
#include <vector>

namespace nidc {

/// Shortest and longest token kept after normalization; the upper bound
/// guards against garbage runs. With the joiners and the digit rule below
/// they are the tokenizer's one configuration. They decide every term id
/// that WAL corpus records and snapshots persist, and neither records
/// them, so changing one changes what an existing store means.
inline constexpr size_t kMinTokenLength = 2;
inline constexpr size_t kMaxTokenLength = 64;

/// Converts raw text into normalized word tokens. Word characters are the
/// ASCII letters and digits; every other byte, including bytes >= 0x80,
/// separates tokens, except that an internal hyphen or apostrophe keeps a
/// compound whole ("e-mail", "o'brien"). A trailing "'s" is stripped, and
/// digit-only tokens ("1998") are dropped.
class Tokenizer {
 public:
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

 private:
  static bool IsWordChar(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z');
  }

  static bool IsJoiner(char c) { return c == '-' || c == '\''; }

  /// Strips the possessive and stray joiners from a raw token, then
  /// applies the length/number filters; returns false if it is dropped.
  static bool Finish(std::string_view* token);
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
      } else if (IsJoiner(c) && i + 1 < n && IsWordChar(text[i + 1])) {
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
