#include "nidc/shard/ingest.h"

#include <cmath>
#include <cstdint>

#include "nidc/obs/json_util.h"

namespace nidc::shard {

std::string SanitizeText(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

namespace {

Status LineError(size_t line_number, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + message);
}

Result<RawDocument> ParseIngestLine(const std::string& line,
                                    size_t line_number) {
  Result<obs::JsonValue> parsed = obs::ParseJson(line);
  if (!parsed.ok()) {
    return LineError(line_number, parsed.status().message());
  }
  const obs::JsonValue& value = *parsed;
  if (!value.is_object()) {
    return LineError(line_number, "expected a JSON object");
  }
  for (const auto& [key, unused] : value.object) {
    if (key != "time" && key != "text" && key != "topic" && key != "source") {
      return LineError(line_number, "unknown field \"" + key + "\"");
    }
  }

  RawDocument doc;
  const obs::JsonValue* time = value.Find("time");
  if (time == nullptr || !time->is_number()) {
    return LineError(line_number, "missing or non-numeric \"time\"");
  }
  if (!std::isfinite(time->number)) {
    return LineError(line_number, "\"time\" must be finite");
  }
  doc.time = CanonicalTime(time->number);

  const obs::JsonValue* text = value.Find("text");
  if (text == nullptr || text->kind != obs::JsonValue::Kind::kString) {
    return LineError(line_number, "missing or non-string \"text\"");
  }
  doc.text = SanitizeText(text->string_value);
  if (doc.text.find_first_not_of(' ') == std::string::npos) {
    return LineError(line_number, "\"text\" must not be empty");
  }

  if (const obs::JsonValue* topic = value.Find("topic"); topic != nullptr) {
    // Range first: casting a double outside int32 is undefined.
    if (!topic->is_number() || !(topic->number >= INT32_MIN) ||
        !(topic->number <= INT32_MAX) ||
        topic->number != std::floor(topic->number)) {
      return LineError(line_number, "\"topic\" must be a 32-bit integer");
    }
    doc.topic = static_cast<TopicId>(topic->number);
  }
  if (const obs::JsonValue* source = value.Find("source");
      source != nullptr) {
    if (source->kind != obs::JsonValue::Kind::kString) {
      return LineError(line_number, "\"source\" must be a string");
    }
    doc.source = SanitizeText(source->string_value);
  }
  return doc;
}

}  // namespace

Result<std::vector<RawDocument>> ParseIngestJsonl(const std::string& body) {
  std::vector<RawDocument> docs;
  size_t pos = 0;
  size_t line_number = 0;
  while (pos <= body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    std::string line = body.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_number;
    if (line.find_first_not_of(" \t") != std::string::npos) {
      Result<RawDocument> doc = ParseIngestLine(line, line_number);
      if (!doc.ok()) return doc.status();
      docs.push_back(std::move(doc).value());
    }
    if (end == body.size()) break;
    pos = end + 1;
  }
  return docs;
}

std::string FormatIngestJson(const RawDocument& doc) {
  obs::JsonObjectBuilder builder;
  builder.Add("time", doc.time);
  builder.Add("text", SanitizeText(doc.text));
  if (doc.topic != kNoTopic) builder.Add("topic", static_cast<int>(doc.topic));
  if (!doc.source.empty()) builder.Add("source", SanitizeText(doc.source));
  return builder.Render();
}

std::string FormatIngestJsonl(const std::vector<RawDocument>& docs) {
  std::string out;
  for (const RawDocument& doc : docs) {
    out += FormatIngestJson(doc);
    out += '\n';
  }
  return out;
}

}  // namespace nidc::shard
