// First story detection (FSD) — one of the TDT tasks the paper's related
// work surveys (§2.1): decide, for each arriving document, whether it is
// the first story of a new topic. This detector runs on the library's
// forgetting model: a document is novel when it is dissimilar to every
// *active* (non-expired) document, so old topics naturally "re-fire" when
// they resurface after their life span — the on-line behaviour the paper's
// novelty goal implies.
//
// Scores use the cosine of the ψ vectors (ψ_i·ψ_j / (|ψ_i||ψ_j|)), i.e.
// the novelty-weighted tf·idf direction: unlike raw Eq. 16 values (which
// scale with Pr(d)²), cosines are comparable across time, so a single
// threshold works for the whole stream.

#ifndef NIDC_CORE_FIRST_STORY_H_
#define NIDC_CORE_FIRST_STORY_H_

#include <vector>

#include "nidc/core/novelty_similarity.h"

namespace nidc {

struct FirstStoryOptions {
  /// A document is a first story when its maximum cosine to every earlier
  /// active document is below this threshold.
  double novelty_threshold = 0.25;
};

/// Verdict for one observed document.
struct FirstStoryVerdict {
  DocId doc = 0;
  /// Highest cosine against any earlier active document (0 when none).
  double max_similarity = 0.0;
  /// The earlier document achieving it (meaningless when max is 0).
  DocId nearest = 0;
  bool is_first_story = false;
};

/// On-line first-story detector over a forgetting model.
class FirstStoryDetector {
 public:
  FirstStoryDetector(const Corpus* corpus, ForgettingParams params,
                     FirstStoryOptions options = {});

  /// Observes a batch of documents acquired by time `tau` (>= now):
  /// advances the clock, expires stale documents, and scores each new
  /// document against all earlier active ones (earlier batch members
  /// included, in order). The batch is incorporated afterwards.
  Result<std::vector<FirstStoryVerdict>> Observe(
      const std::vector<DocId>& new_docs, DayTime tau);

  const ForgettingModel& model() const { return model_; }
  ForgettingModel& model() { return model_; }
  const FirstStoryOptions& options() const { return options_; }

  /// Total first stories flagged so far.
  size_t num_first_stories() const { return num_first_stories_; }

 private:
  ForgettingModel model_;
  FirstStoryOptions options_;
  size_t num_first_stories_ = 0;
};

}  // namespace nidc

#endif  // NIDC_CORE_FIRST_STORY_H_
