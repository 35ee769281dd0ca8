#include "nidc/corpus/corpus_io.h"

#include <cmath>
#include <fstream>
#include <functional>

#include "nidc/util/string_util.h"

namespace nidc {

std::string FormatRawDocument(const RawDocument& doc) {
  std::string text = doc.text;
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  std::string source = doc.source;
  for (char& c : source) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return StringPrintf("%.6f\t%d\t%s\t%s", doc.time, doc.topic, source.c_str(),
                      text.c_str());
}

Result<RawDocument> ParseRawDocument(const std::string& line) {
  std::vector<std::string> fields = Split(line, '\t');
  if (fields.size() != 4) {
    return Status::InvalidArgument("expected 4 tab-separated fields, got " +
                                   std::to_string(fields.size()));
  }
  RawDocument doc;
  try {
    doc.time = std::stod(fields[0]);
    doc.topic = static_cast<TopicId>(std::stol(fields[1]));
  } catch (const std::exception&) {
    return Status::InvalidArgument("malformed numeric field in: " + line);
  }
  if (!std::isfinite(doc.time)) {
    return Status::InvalidArgument("non-finite document time: " + fields[0]);
  }
  doc.source = fields[2];
  doc.text = fields[3];
  return doc;
}

Status SaveRawDocuments(const std::string& path,
                        const std::vector<RawDocument>& docs, Env* env) {
  if (env == nullptr) env = Env::Default();
  std::string contents =
      "# nidc corpus v1: time<TAB>topic<TAB>source<TAB>text\n";
  for (const RawDocument& doc : docs) {
    contents += FormatRawDocument(doc);
    contents += '\n';
  }
  return AtomicWriteFile(env, path, contents);
}

namespace {

// The one record loop behind both loaders: parses `path` line by line and
// hands each well-formed record to `sink` as soon as it is read, so a
// caller that consumes records immediately never holds the whole file.
Status ReadRecords(const std::string& path, const CorpusReadOptions& options,
                   CorpusReadStats* stats,
                   const std::function<void(RawDocument&&)>& sink) {
  CorpusReadStats local;
  if (stats == nullptr) stats = &local;
  *stats = CorpusReadStats();

  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path + " for reading");
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    Result<RawDocument> parsed = ParseRawDocument(line);
    if (!parsed.ok()) {
      const std::string context = path + ":" + std::to_string(lineno) +
                                  ": " + parsed.status().message();
      ++stats->bad_records;
      if (stats->first_error.empty()) stats->first_error = context;
      if (options.strict) return Status::InvalidArgument(context);
      continue;
    }
    ++stats->records_read;
    sink(std::move(parsed).value());
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<RawDocument>> LoadRawDocuments(
    const std::string& path, const CorpusReadOptions& options,
    CorpusReadStats* stats) {
  std::vector<RawDocument> docs;
  NIDC_RETURN_NOT_OK(
      ReadRecords(path, options, stats, [&docs](RawDocument&& doc) {
        docs.push_back(std::move(doc));
      }));
  return docs;
}

Result<std::unique_ptr<Corpus>> LoadCorpus(const std::string& path,
                                           const CorpusReadOptions& options,
                                           CorpusReadStats* stats) {
  auto corpus = std::make_unique<Corpus>();
  NIDC_RETURN_NOT_OK(ReadRecords(
      path, options, stats, [&corpus](RawDocument&& doc) {
        corpus->AddText(doc.text, doc.time, doc.topic, std::move(doc.source));
      }));
  return corpus;
}

}  // namespace nidc
