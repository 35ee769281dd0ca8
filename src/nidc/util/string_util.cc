#include "nidc/util/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace nidc {

std::vector<std::string> Split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

void AppendHexDouble(double value, std::string* out) {
  // Room for "-0x1.fffffffffffffp-1022" and every shorter form.
  char buf[32];
  char* end = buf;
  if (std::signbit(value)) *end++ = '-';
  if (std::isfinite(value)) {
    *end++ = '0';
    *end++ = 'x';
  }
  if (std::fpclassify(value) != FP_SUBNORMAL) {
    // to_chars writes %a's digits without its "0x".
    end = std::to_chars(end, buf + sizeof(buf), std::fabs(value),
                        std::chars_format::hex)
              .ptr;
    out->append(buf, end);
    return;
  }
  // to_chars normalizes a subnormal ("1p-1074"). %a keeps its leading 0
  // and exponent -1022 and writes its 13 fraction digits, trailing zeros
  // dropped ("0x0.0000000000001p-1022").
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  *end++ = '0';
  *end++ = '.';
  uint64_t rest = bits & ((uint64_t{1} << 52) - 1);
  for (int shift = 48; rest != 0; shift -= 4) {
    *end++ = "0123456789abcdef"[(rest >> shift) & 0xF];
    rest &= (uint64_t{1} << shift) - 1;
  }
  out->append(buf, end);
  out->append("p-1022");
}

void AppendDouble17(double value, std::string* out) {
  // Room for "-2.2250738585072014e-308" and every shorter form.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

std::optional<double> ParseHexDouble(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  std::string_view body = text.substr(negative ? 1 : 0);
  if (!StartsWith(body, "0x")) return ParseNumber<double>(text);
  body.remove_prefix(2);
  double value = 0.0;
  const char* end = body.data() + body.size();
  const auto [stop, error] = std::from_chars(body.data(), end, value,
                                             std::chars_format::hex);
  // from_chars would also take a sign or "inf" here; %a writes digits.
  if (body.empty() || !std::isxdigit(static_cast<unsigned char>(body[0])) ||
      error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace nidc
