// The document model. Timestamps are measured in fractional *days* from an
// arbitrary corpus epoch (the paper's unit: half-life span β = 7 days, etc.).

#ifndef NIDC_CORPUS_DOCUMENT_H_
#define NIDC_CORPUS_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "nidc/text/term_counts.h"

namespace nidc {

/// Dense document identifier, assigned by the Corpus in insertion order.
using DocId = uint32_t;

/// Ground-truth topic label (from annotation or the synthetic generator);
/// kNoTopic when unlabeled.
using TopicId = int32_t;
inline constexpr TopicId kNoTopic = -1;

/// Time in fractional days since the corpus epoch.
using DayTime = double;

/// One on-line document: identity, acquisition time T_i, ground truth, and
/// the analyzed term-frequency vector (f_ik of the paper).
///
/// A Document is a view of the bytes a Corpus stores the document in: its
/// source and terms point into them, so it is valid only until the next
/// call that changes the corpus (Add, AddText, Install, ReleaseBefore).
struct Document {
  DocId id = 0;
  /// Acquisition time T_i (days since corpus epoch).
  DayTime time = 0.0;
  /// Ground-truth topic (evaluation only — never visible to the clusterer).
  TopicId topic = kNoTopic;
  /// Originating feed (e.g. "APW"); informational.
  std::string_view source;
  /// Term frequencies f_ik over the shared vocabulary.
  TermCountsView terms;

  /// Document length len_i = Σ_l f_il (Eq. 15); a sum of integers, exact
  /// below 2⁵³.
  double Length() const { return terms.Sum(); }
};

/// Appends one document in the form a corpus record stores it:
///   time (IEEE-754 bits, u64 LE) | zigzag topic | source length, bytes |
///   #entries | per entry: id delta, count
/// (all integers but the time are varints; see AppendTermCounts).
void AppendDocument(std::string* out, DayTime time, TopicId topic,
                    std::string_view source, const TermCounts& terms);

/// At least the number of bytes AppendDocument writes for a document with
/// `source` and `terms`.
inline size_t EncodedSizeBound(std::string_view source,
                               const TermCounts& terms) {
  // The time, three varints of at most 10 bytes, and per entry two of at
  // most 5 (ids and counts are 32-bit).
  return 8 + 30 + source.size() + 10 * terms.size();
}

/// The document AppendDocument wrote at `data`, viewed in place, with id
/// `id`. The bytes must be well-formed: nothing is checked.
Document ViewDocument(DocId id, const char* data);

}  // namespace nidc

#endif  // NIDC_CORPUS_DOCUMENT_H_
