#include "nidc/core/first_story.h"

#include <cmath>
#include <cstdint>

namespace nidc {

FirstStoryDetector::FirstStoryDetector(const Corpus* corpus,
                                       ForgettingParams params,
                                       FirstStoryOptions options)
    : model_(corpus, params), options_(options) {}

Result<std::vector<FirstStoryVerdict>> FirstStoryDetector::Observe(
    const std::vector<DocId>& new_docs, DayTime tau) {
  if (tau < model_.now()) {
    return Status::InvalidArgument("observation time precedes model time");
  }
  model_.AdvanceTo(tau);
  model_.ExpireDocuments();

  // Incorporate the batch so one SimilarityContext covers everyone; each
  // newcomer is compared only against active documents with a smaller id
  // (pre-batch actives plus earlier batch members). Term → slot postings
  // over the context's ψ arena prune the scan to documents that share a
  // ψ term — all others have similarity exactly 0.
  model_.AddDocuments(new_docs);
  const SimilarityContext ctx(model_);
  std::vector<size_t> starts(ctx.num_local_terms() + 1, 0);
  for (SimilarityContext::Slot s = 0; s < ctx.size(); ++s) {
    const SimilarityContext::Row row = ctx.PsiAt(s);
    for (size_t i = 0; i < row.size; ++i) ++starts[row.terms[i] + 1];
  }
  for (size_t t = 0; t < ctx.num_local_terms(); ++t) {
    starts[t + 1] += starts[t];
  }
  std::vector<SimilarityContext::Slot> postings(ctx.num_entries());
  std::vector<size_t> fill(starts.begin(), starts.end() - 1);
  for (SimilarityContext::Slot s = 0; s < ctx.size(); ++s) {
    const SimilarityContext::Row row = ctx.PsiAt(s);
    for (size_t i = 0; i < row.size; ++i) postings[fill[row.terms[i]]++] = s;
  }

  // The last query each slot was scored for, so a candidate sharing
  // several terms is scored once.
  std::vector<size_t> scored_for(ctx.size(), SIZE_MAX);
  std::vector<FirstStoryVerdict> verdicts;
  verdicts.reserve(new_docs.size());
  for (size_t q = 0; q < new_docs.size(); ++q) {
    FirstStoryVerdict verdict;
    verdict.doc = new_docs[q];
    const SimilarityContext::Slot slot = ctx.SlotOf(verdict.doc);
    const double self = ctx.SelfSimAt(slot);
    const SimilarityContext::Row row = ctx.PsiAt(slot);
    for (size_t i = 0; self > 0.0 && i < row.size; ++i) {
      for (size_t p = starts[row.terms[i]]; p < starts[row.terms[i] + 1];
           ++p) {
        const SimilarityContext::Slot other = postings[p];
        if (ctx.DocAt(other) >= verdict.doc || scored_for[other] == q) {
          continue;
        }
        scored_for[other] = q;
        const double other_self = ctx.SelfSimAt(other);
        if (other_self <= 0.0) continue;
        const double cosine = ctx.Sim(verdict.doc, ctx.DocAt(other)) /
                              std::sqrt(self * other_self);
        if (cosine > verdict.max_similarity) {
          verdict.max_similarity = cosine;
          verdict.nearest = ctx.DocAt(other);
        }
      }
    }
    verdict.is_first_story =
        verdict.max_similarity < options_.novelty_threshold;
    if (verdict.is_first_story) ++num_first_stories_;
    verdicts.push_back(verdict);
  }
  return verdicts;
}

}  // namespace nidc
