#include "nidc/corpus/corpus_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>

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

double CanonicalTime(double time) {
  // Room for "%.6f" of any double: up to 309 integer digits.
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.6f", time);
  return std::strtod(buf, nullptr);
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

using RecordSink = std::function<void(RawDocument&&)>;

// Parses line `lineno` of `path` and hands a well-formed record to `sink`;
// comments and blank lines are skipped. A malformed record is counted, and
// fails the load when `options` are strict.
Status ParseLine(const std::string& line, const std::string& path,
                 size_t lineno, const CorpusReadOptions& options,
                 CorpusReadStats* stats, const RecordSink& sink) {
  if (line.empty() || line[0] == '#') return Status::OK();
  Result<RawDocument> parsed = ParseRawDocument(line);
  if (!parsed.ok()) {
    const std::string context = path + ":" + std::to_string(lineno) + ": " +
                                parsed.status().message();
    ++stats->bad_records;
    if (stats->first_error.empty()) stats->first_error = context;
    return options.strict ? Status::InvalidArgument(context) : Status::OK();
  }
  ++stats->records_read;
  sink(std::move(parsed).value());
  return Status::OK();
}

// The record loop behind both loaders: parses `path` line by line and
// hands each well-formed record to `sink` as soon as it is read, so a
// caller that consumes records immediately never holds the whole file.
Status ReadRecords(const std::string& path, const CorpusReadOptions& options,
                   CorpusReadStats* stats, const RecordSink& sink) {
  CorpusReadStats local;
  if (stats == nullptr) stats = &local;
  *stats = CorpusReadStats();

  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path + " for reading");
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    NIDC_RETURN_NOT_OK(ParseLine(line, path, ++lineno, options, stats, sink));
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

namespace {

// Corpus record layout (integers are LEB128 varints unless noted):
//   "CDR1" | first_term | #terms |
//   per term: length, bytes | first_doc | #docs |
//   per doc: time (IEEE-754 bits, u64 LE) | zigzag topic | source length,
//            bytes | #entries | per entry: id delta, frequency
// The first id delta is the id itself; each later one is >= 1, so ids
// strictly increase as in TermCounts. A frequency is in [1, 2³²−1].
constexpr char kIndexTag[] = "CDR1";
constexpr size_t kIndexTagSize = 4;

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutFixed(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out->append(bytes);
}

// Bounds-checked cursor over a payload; the first overrun latches `ok`
// false and every later read returns 0 / empty.
class IndexReader {
 public:
  explicit IndexReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool done() const { return data_.empty(); }

  uint64_t Varint() {
    // Most id deltas, counts and lengths fit in one byte.
    if (!data_.empty() && static_cast<unsigned char>(data_.front()) < 0x80) {
      const auto v = static_cast<unsigned char>(data_.front());
      data_.remove_prefix(1);
      return v;
    }
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (data_.empty()) break;
      const auto byte = static_cast<unsigned char>(data_.front());
      data_.remove_prefix(1);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    ok_ = false;
    return 0;
  }

  uint64_t Fixed(size_t bytes) {
    const std::string_view raw = Bytes(bytes);
    uint64_t v = 0;
    for (size_t i = 0; i < raw.size(); ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(raw[i]))
           << (8 * i);
    }
    return v;
  }

  std::string_view Bytes(uint64_t n) {
    if (!ok_ || n > data_.size()) {
      ok_ = false;
      return {};
    }
    const std::string_view out = data_.substr(0, n);
    data_.remove_prefix(n);
    return out;
  }

  std::string_view LengthPrefixed() { return Bytes(Varint()); }

  // A count of items each at least `min_bytes` long; a count the rest of
  // the payload cannot hold is damage, not an allocation request.
  uint64_t Count(size_t min_bytes) {
    const uint64_t n = Varint();
    if (n > data_.size() / min_bytes) ok_ = false;
    return ok_ ? n : 0;
  }

 private:
  std::string_view data_;
  bool ok_ = true;
};

}  // namespace

std::string EncodeCorpusIndexRecord(const Corpus& corpus,
                                    const CorpusIndexSpan& span) {
  const Vocabulary& vocabulary = corpus.vocabulary();
  size_t estimate = 32;
  for (TermId t = span.first_term; t < span.end_term; ++t) {
    estimate += vocabulary.term(t).size() + 1;
  }
  for (size_t d = span.first_doc; d < span.end_doc; ++d) {
    const Document& doc = corpus.doc(static_cast<DocId>(d));
    estimate += 16 + doc.source.size() + 3 * doc.terms.size();
  }
  std::string out;
  out.reserve(estimate);
  out.append(kIndexTag, kIndexTagSize);
  PutVarint(&out, span.first_term);
  PutVarint(&out, span.end_term - span.first_term);
  for (TermId t = span.first_term; t < span.end_term; ++t) {
    PutBytes(&out, vocabulary.term(t));
  }
  PutVarint(&out, span.first_doc);
  PutVarint(&out, span.end_doc - span.first_doc);
  for (size_t d = span.first_doc; d < span.end_doc; ++d) {
    const Document& doc = corpus.doc(static_cast<DocId>(d));
    uint64_t time_bits = 0;
    std::memcpy(&time_bits, &doc.time, sizeof(time_bits));
    PutFixed(&out, time_bits, 8);
    const auto topic = static_cast<uint32_t>(doc.topic);
    PutVarint(&out, (topic << 1) ^ static_cast<uint32_t>(doc.topic >> 31));
    PutBytes(&out, doc.source);
    PutVarint(&out, doc.terms.size());
    TermId previous = 0;
    for (const TermCounts::Entry& entry : doc.terms.entries()) {
      PutVarint(&out, entry.id - previous);
      PutVarint(&out, entry.count);
      previous = entry.id;
    }
  }
  return out;
}

bool IsCorpusIndexRecord(std::string_view payload) {
  return payload.substr(0, kIndexTagSize) ==
         std::string_view(kIndexTag, kIndexTagSize);
}

Result<CorpusIndexRecord> DecodeCorpusIndexRecord(std::string_view payload) {
  const auto damaged = [](const char* what) {
    return Status::InvalidArgument(std::string("corpus record: ") + what);
  };
  IndexReader in(payload);
  if (in.Bytes(kIndexTagSize) != std::string_view(kIndexTag, kIndexTagSize)) {
    return damaged("bad tag");
  }
  CorpusIndexRecord record;
  const uint64_t first_term = in.Varint();
  const uint64_t num_terms = in.Count(1);
  if (!in.ok() || first_term + num_terms > kInvalidTermId) {
    return damaged("bad header");
  }
  record.first_term = static_cast<TermId>(first_term);
  record.terms.reserve(num_terms);
  for (uint64_t t = 0; t < num_terms; ++t) {
    record.terms.push_back(in.LengthPrefixed());
  }
  const uint64_t first_doc = in.Varint();
  const uint64_t num_docs = in.Count(11);
  if (!in.ok() || first_doc + num_docs > std::numeric_limits<DocId>::max()) {
    return damaged("bad term list");
  }
  record.first_doc = static_cast<DocId>(first_doc);
  record.docs.resize(num_docs);
  for (Document& doc : record.docs) {
    const uint64_t time_bits = in.Fixed(8);
    std::memcpy(&doc.time, &time_bits, sizeof(doc.time));
    const uint64_t zigzag = in.Varint();
    doc.topic = static_cast<TopicId>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
    doc.source = std::string(in.LengthPrefixed());
    const uint64_t num_entries = in.Count(2);
    std::vector<TermCounts::Entry> entries;
    entries.reserve(num_entries);
    uint64_t id = 0;
    for (uint64_t e = 0; e < num_entries; ++e) {
      const uint64_t delta = in.Varint();
      const uint64_t frequency = in.Varint();
      // `id` < kInvalidTermId here, so the subtraction cannot wrap.
      if ((e > 0 && delta == 0) || delta >= kInvalidTermId - id ||
          frequency == 0 || frequency > std::numeric_limits<uint32_t>::max()) {
        return damaged("bad term vector");
      }
      id += delta;
      entries.push_back(
          {static_cast<TermId>(id), static_cast<uint32_t>(frequency)});
    }
    if (!in.ok() || !std::isfinite(doc.time) ||
        zigzag > std::numeric_limits<uint32_t>::max()) {
      return damaged("bad document");
    }
    doc.terms = TermCounts::FromSortedEntries(std::move(entries));
  }
  if (!in.ok() || !in.done()) return damaged("trailing bytes");
  return record;
}

}  // namespace nidc
