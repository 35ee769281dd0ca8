// The ingest wire format of the sharded service (see docs/serving.md):
// one JSON object per line (JSONL), each line one document —
//
//   {"time": 12.5, "text": "raw document text", "topic": 3, "source": "ap"}
//
// `time` (finite number, days) and `text` (non-empty string) are
// required; `topic` (integer ground-truth label, for evaluation feeds)
// and `source` default to kNoTopic / "". Parsing is strict: the first
// malformed line fails the whole batch with a line diagnostic, so a
// rejected POST never partially ingests.
//
// Both directions sanitize text the way corpus_io does on save
// (tabs/newlines/carriage returns become spaces): the tenant's
// corpus.tsv archive must re-load to byte-identical documents, or a CLI
// replay of it would diverge from the live state.

#ifndef NIDC_SHARD_INGEST_H_
#define NIDC_SHARD_INGEST_H_

#include <string>
#include <vector>

#include "nidc/corpus/corpus_io.h"
#include "nidc/util/status.h"

namespace nidc::shard {

/// Replaces '\t', '\n' and '\r' with ' ' — the same normalization
/// FormatRawDocument applies — so in-memory analysis matches what a CLI
/// replay of the tenant's corpus.tsv archive analyzes.
std::string SanitizeText(std::string_view text);

/// Parses a JSONL request body into raw documents (text already
/// sanitized). Blank lines are skipped; the first malformed line fails
/// with InvalidArgument("line N: ..."). An empty batch is valid.
Result<std::vector<RawDocument>> ParseIngestJsonl(const std::string& body);

/// Renders documents as the JSONL body ParseIngestJsonl accepts — the
/// shared encoder used by `nidc_cli` and the capacity benchmark, so every
/// client speaks byte-identical requests.
std::string FormatIngestJsonl(const std::vector<RawDocument>& docs);

/// Renders one document as its ingest JSON object (no newline).
std::string FormatIngestJson(const RawDocument& doc);

}  // namespace nidc::shard

#endif  // NIDC_SHARD_INGEST_H_
