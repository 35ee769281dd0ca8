// Plain-text corpus persistence. Format: one document per line,
//   <time>\t<topic>\t<source>\t<raw text>
// Lines starting with '#' are comments. Loading re-analyzes the text, so a
// round-tripped corpus has identical term vectors if the analyzer options
// match.
//
// Loaders report errors with file:line context. By default they are
// strict — the first malformed record fails the load — but callers
// ingesting feeds of uneven quality can pass CorpusReadOptions{.strict =
// false} to skip damaged records and count them in CorpusReadStats
// instead (surfaced as the `corpus.bad_records` metric by nidc_cli).
//
// SaveRawDocuments writes atomically (write-temp + fsync + rename): a
// crash mid-save never leaves a truncated corpus under the target name.
//
// A corpus record (CorpusIndexRecord) carries analyzed documents — the
// terms a stretch of ids introduced and those documents' term vectors —
// so a reader can install them with Corpus::Install instead of analyzing
// text again. A durable store that logs documents writes one per ingested
// batch to its WAL and one holding the live window into every snapshot
// (see store/durable_clusterer.h and docs/durability.md).

#ifndef NIDC_CORPUS_CORPUS_IO_H_
#define NIDC_CORPUS_CORPUS_IO_H_

#include <concepts>
#include <string>

#include "nidc/corpus/corpus.h"
#include "nidc/util/env.h"
#include "nidc/util/status.h"

namespace nidc {

/// A raw (pre-analysis) document record, as stored on disk.
struct RawDocument {
  DayTime time = 0.0;
  TopicId topic = kNoTopic;
  std::string source;
  std::string text;
};

/// How loaders treat malformed input.
struct CorpusReadOptions {
  /// True (default): the first malformed record fails the whole load with
  /// a file:line diagnostic. False: malformed records are skipped and
  /// counted in CorpusReadStats.
  bool strict = true;
};

/// What a (lenient or strict) load encountered.
struct CorpusReadStats {
  /// Records successfully parsed.
  size_t records_read = 0;
  /// Malformed records skipped (always 0 after a successful strict load).
  size_t bad_records = 0;
  /// file:line-prefixed diagnostic of the first malformed record, empty
  /// when none was seen.
  std::string first_error;
};

/// Writes raw documents to `path` in the TSV format above, atomically.
/// `env` defaults to the process-wide POSIX Env.
Status SaveRawDocuments(const std::string& path,
                        const std::vector<RawDocument>& docs,
                        Env* env = nullptr);

/// Reads raw documents from `path`. `stats` (optional) receives counts
/// even when the load fails.
Result<std::vector<RawDocument>> LoadRawDocuments(
    const std::string& path, const CorpusReadOptions& options = {},
    CorpusReadStats* stats = nullptr);

/// Loads raw documents and analyzes them into a fresh corpus, in file order.
/// Records stream straight from the file into the corpus (no intermediate
/// document vector); errors and `stats` behave exactly as in
/// LoadRawDocuments.
Result<std::unique_ptr<Corpus>> LoadCorpus(
    const std::string& path, const CorpusReadOptions& options = {},
    CorpusReadStats* stats = nullptr);

/// Serializes a single raw document to its TSV line (tabs/newlines in the
/// text are replaced by spaces).
std::string FormatRawDocument(const RawDocument& doc);

/// Snaps `time` to the value it reads back as from its TSV line
/// (FormatRawDocument writes "%.6f"). Ingest applies it before analysis so
/// that the live corpus and a re-parse of its archive agree.
double CanonicalTime(double time);

/// Parses one TSV line; returns InvalidArgument on malformed input
/// (wrong field count, unparseable or non-finite time, bad topic id).
Result<RawDocument> ParseRawDocument(const std::string& line);

/// One corpus record: terms and documents a stretch of ids added to a
/// corpus. A decoded record views the payload it was decoded from (its
/// terms and its documents' bytes), so it must not outlive that payload.
struct CorpusIndexRecord {
  /// Vocabulary size before the block: the id of terms[0].
  TermId first_term = 0;
  /// Terms the block introduced, in id order.
  std::vector<std::string_view> terms;
  /// DocId of the first document.
  DocId first_doc = 0;
  /// The block's documents, in the form a Corpus stores them.
  EncodedDocuments docs;
};

/// Terms [first_term, end_term) and documents [first_doc, end_doc) of a
/// corpus: what one record describes.
struct CorpusIndexSpan {
  TermId first_term = 0;
  TermId end_term = 0;
  DocId first_doc = 0;
  DocId end_doc = 0;
};

/// Encodes the record of `span` from `corpus`; every id in the span must
/// be retained.
std::string EncodeCorpusIndexRecord(const Corpus& corpus,
                                    const CorpusIndexSpan& span);

/// True when `payload` carries a corpus record's tag (it may still be
/// damaged): how a log that mixes record kinds tells them apart.
bool IsCorpusIndexRecord(std::string_view payload);

/// Checks a record and views its parts; InvalidArgument on anything
/// EncodeCorpusIndexRecord cannot have written, so that encoding what
/// Corpus::Install made of it gives `payload` back. Every varint must be
/// minimal, and every document may name only terms below first_term +
/// terms.size(). It copies no document: the record's terms and documents
/// point into `payload`, so a temporary string is refused at compile time.
Result<CorpusIndexRecord> DecodeCorpusIndexRecord(std::string_view payload);
template <typename S>
  requires std::same_as<S, std::string>
Result<CorpusIndexRecord> DecodeCorpusIndexRecord(S&& payload) = delete;

}  // namespace nidc

#endif  // NIDC_CORPUS_CORPUS_IO_H_
