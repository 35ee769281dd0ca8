// Small string helpers shared across the library.

#ifndef NIDC_UTIL_STRING_UTIL_H_
#define NIDC_UTIL_STRING_UTIL_H_

#include <charconv>
#include <cstddef>

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nidc {

/// Transparent hash for unordered containers keyed by std::string: with
/// std::equal_to<> it lets them be probed by std::string_view without
/// building a temporary string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// Splits on any single delimiter character; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char delim);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lower-casing (locale-independent).
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses all of `text` as a T (an integer or floating-point type):
/// nullopt when `text` is empty, is not a number, or has anything after
/// the number.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// Appends `value` exactly as printf's "%a" prints it: a hex float that
/// reads back bit-exactly ("inf", "-inf", "nan" or "-nan" when not
/// finite).
void AppendHexDouble(double value, std::string* out);

/// Appends `value` exactly as printf's "%.17g" prints it, which is also
/// what an ostream at precision 17 prints: enough digits to read back
/// bit-exactly.
void AppendDouble17(double value, std::string* out);

/// Parses all of `text` as a double the way strtod reads what the two
/// appenders above write: a hex float ("0x" after an optional '-'), a
/// decimal, or inf/nan. nullopt on anything else.
std::optional<double> ParseHexDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace nidc

#endif  // NIDC_UTIL_STRING_UTIL_H_
