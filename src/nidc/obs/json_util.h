// Minimal JSON support for the telemetry exporters: an escaping object
// builder for emission and a small recursive-descent parser for
// validation (the JSONL round-trip tests and tools/nidc_metrics_check).
//
// The parser accepts standard JSON (RFC 8259) minus \u escapes beyond the
// ASCII range — ample for telemetry records, which this library itself
// produces. It is not a general-purpose JSON library and does not aim to
// be one.

#ifndef NIDC_OBS_JSON_UTIL_H_
#define NIDC_OBS_JSON_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nidc/util/status.h"

namespace nidc::obs {

/// Escapes `raw` for inclusion inside a JSON string literal (quotes not
/// included).
std::string JsonEscape(const std::string& raw);

/// `raw` as a complete JSON string literal: escaped and in quotes.
std::string JsonQuote(const std::string& raw);

/// Renders a double the way JSON expects: the shortest %g form that parses
/// back to the same double; non-finite values render as null.
std::string JsonNumber(double value);

/// `[e0,e1,...]` of already-rendered JSON values.
std::string JsonArray(const std::vector<std::string>& elements);

/// Incremental `{...}` builder preserving insertion order.
class JsonObjectBuilder {
 public:
  JsonObjectBuilder& Add(const std::string& key, const std::string& value);
  JsonObjectBuilder& Add(const std::string& key, const char* value);
  JsonObjectBuilder& Add(const std::string& key, double value);
  JsonObjectBuilder& Add(const std::string& key, uint64_t value);
  JsonObjectBuilder& Add(const std::string& key, int value);
  JsonObjectBuilder& Add(const std::string& key, bool value);
  /// Splices `json` (already-rendered JSON: object, array, number...) in
  /// verbatim.
  JsonObjectBuilder& AddRaw(const std::string& key, const std::string& json);

  /// `{"k1":v1,...}`.
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Parsed JSON value (tree-owning).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Member of an object, or nullptr (also when this is not an object).
  const JsonValue* Find(const std::string& key) const;
};

/// Parses exactly one JSON document (surrounding whitespace allowed);
/// trailing garbage, and arrays or objects nested more than 128 deep, are
/// errors.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace nidc::obs

#endif  // NIDC_OBS_JSON_UTIL_H_
