#include "nidc/text/tokenizer.h"

namespace nidc {

namespace {

bool IsAllDigits(std::string_view token) {
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return !token.empty();
}

}  // namespace

bool Tokenizer::Finish(std::string_view* token) {
  // Strip possessive suffix ("clinton's" -> "clinton").
  if (token->size() > 2 && token->ends_with("'s")) token->remove_suffix(2);
  while (!token->empty() && IsJoiner(token->front())) token->remove_prefix(1);
  while (!token->empty() && IsJoiner(token->back())) token->remove_suffix(1);
  if (token->size() < kMinTokenLength) return false;
  if (token->size() > kMaxTokenLength) return false;
  return !IsAllDigits(*token);
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string buffer;
  ForEachToken(text, &buffer,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace nidc
