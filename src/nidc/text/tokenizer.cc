#include "nidc/text/tokenizer.h"

namespace nidc {

namespace {

bool IsJoiner(char c) { return c == '\'' || c == '-'; }

bool IsAllDigits(std::string_view token) {
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return !token.empty();
}

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

bool Tokenizer::Finish(std::string_view* token) const {
  // Strip possessive suffix ("clinton's" -> "clinton").
  if (token->size() > 2 && token->ends_with("'s")) token->remove_suffix(2);
  while (!token->empty() && IsJoiner(token->front())) token->remove_prefix(1);
  while (!token->empty() && IsJoiner(token->back())) token->remove_suffix(1);
  if (token->size() < options_.min_length) return false;
  if (token->size() > options_.max_length) return false;
  if (options_.drop_numbers && IsAllDigits(*token)) return false;
  return true;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string buffer;
  ForEachToken(text, &buffer,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace nidc
