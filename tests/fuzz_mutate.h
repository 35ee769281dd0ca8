// Test helper: seeded mutations of a parser's input, for fuzz tests that
// start from a real input and check that whatever a mutant yields is a
// Status or a valid value.
//
// A mutation is one of three kinds: 0 truncates, 1 flips up to four bytes,
// 2 splices. A text input splices whole whitespace-separated tokens (a run
// from elsewhere in the text, or a hostile token); a binary input splices
// byte ranges.

#ifndef NIDC_TESTS_FUZZ_MUTATE_H_
#define NIDC_TESTS_FUZZ_MUTATE_H_

#include <algorithm>
#include <cctype>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nidc/util/random.h"

namespace nidc {

/// Tokens that stress counts, numbers and the snapshot format's keywords
/// when spliced in.
inline constexpr const char* kHostileTokens[] = {
    "99999999999999", "18446744073709551615", "4294967296", "-1", "0",
    "nan",            "-nan",                 "inf",        "1e400",
    "0x1p+1024",      "0x0.0000000000001p-1022", "-0x0p+0", "none",
    "clusters",       "exact",                "cluster",    ""};

inline bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c));
}

/// [begin, end) of each whitespace-separated token of `text`.
inline std::vector<std::pair<size_t, size_t>> Tokens(std::string_view text) {
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

/// Mutation `kind` (0 truncate, 1 flip bytes, 2 splice) of `seed`, which
/// must not be empty. A text splices whole tokens, drawing a third of its
/// inserts from `hostile`; a binary input splices byte ranges.
inline std::string Mutate(
    const std::string& seed, int kind, bool text, Rng& rng,
    std::span<const char* const> hostile = kHostileTokens) {
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
      insert = hostile[rng.NextBounded(hostile.size())];
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

}  // namespace nidc

#endif  // NIDC_TESTS_FUZZ_MUTATE_H_
