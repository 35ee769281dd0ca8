#include "nidc/obs/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nidc::obs {

namespace {

void AppendEscaped(const std::string& raw, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  AppendEscaped(raw, &out);
  return out;
}

std::string JsonQuote(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  out += '"';
  AppendEscaped(raw, &out);
  out += '"';
  return out;
}

std::string JsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ",";
    out += elements[i];
  }
  return out + "]";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  // Shortest of %.15g/%.16g/%.17g that parses back to the same double, so
  // 0.1 renders as "0.1" rather than "0.10000000000000001".
  char buf[32];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          const char* value) {
  return Add(key, std::string(value));
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::Add(const std::string& key,
                                          bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObjectBuilder& JsonObjectBuilder::AddRaw(const std::string& key,
                                             const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObjectBuilder::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

// Recursive-descent parser over [pos, text.size()).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    NIDC_RETURN_NOT_OK(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Fail(std::string("expected literal ") + literal);
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return ConsumeLiteral("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return ConsumeLiteral("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      NIDC_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      NIDC_RETURN_NOT_OK(ParseValue(&value));
      out->object.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      NIDC_RETURN_NOT_OK(ParseValue(&value));
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Fail("bad \\u escape");
          if (code > 0x7f) {
            return Fail("non-ASCII \\u escapes are not supported");
          }
          *out += static_cast<char>(code);
          pos_ += 4;
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail("malformed number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace nidc::obs
