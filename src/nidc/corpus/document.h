// The document model. Timestamps are measured in fractional *days* from an
// arbitrary corpus epoch (the paper's unit: half-life span β = 7 days, etc.).

#ifndef NIDC_CORPUS_DOCUMENT_H_
#define NIDC_CORPUS_DOCUMENT_H_

#include <cstdint>
#include <string>

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
struct Document {
  DocId id = 0;
  /// Acquisition time T_i (days since corpus epoch).
  DayTime time = 0.0;
  /// Ground-truth topic (evaluation only — never visible to the clusterer).
  TopicId topic = kNoTopic;
  /// Originating feed (e.g. "APW"); informational.
  std::string source;
  /// Term frequencies f_ik over the shared vocabulary.
  TermCounts terms;

  /// Document length len_i = Σ_l f_il (Eq. 15); a sum of integers, exact
  /// below 2⁵³.
  double Length() const { return terms.Sum(); }
};

}  // namespace nidc

#endif  // NIDC_CORPUS_DOCUMENT_H_
