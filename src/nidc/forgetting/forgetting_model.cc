#include "nidc/forgetting/forgetting_model.h"

#include <cassert>
#include <cmath>

namespace nidc {

double ForgettingParams::Lambda() const {
  return std::exp(-std::log(2.0) / half_life_days);
}

double ForgettingParams::Epsilon() const {
  return std::pow(Lambda(), life_span_days);
}

Status ForgettingParams::Validate() const {
  if (!std::isfinite(half_life_days) || !(half_life_days > 0.0)) {
    return Status::InvalidArgument("half_life_days must be finite and > 0");
  }
  if (!std::isfinite(life_span_days) || !(life_span_days > 0.0)) {
    return Status::InvalidArgument("life_span_days must be finite and > 0");
  }
  const double epsilon = Epsilon();
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument(
        "epsilon = 2^(-gamma/beta) must lie in (0, 1); gamma/beta is too "
        "extreme for this beta/gamma pair");
  }
  return Status::OK();
}

ForgettingModel::ForgettingModel(const Corpus* corpus, ForgettingParams params)
    : corpus_(corpus), params_(params), weights_(params.Lambda()) {
  assert(params.Validate().ok());
}

void ForgettingModel::AdvanceTo(DayTime tau) {
  assert(tau >= now());
  if (tau == now()) return;
  const double decay = std::pow(params_.Lambda(), tau - now());
  weights_.AdvanceTo(tau);
  terms_.Decay(decay);
}

void ForgettingModel::AddDocuments(const std::vector<DocId>& ids) {
  for (DocId id : ids) {
    const Document& doc = corpus_->doc(id);
    weights_.Add(id, doc.time);
    terms_.AddDocument(doc, weights_.Weight(id));
  }
}

std::vector<DocId> ForgettingModel::ExpireDocuments() {
  // Capture weights before removal so term mass is subtracted consistently.
  const double epsilon = params_.Epsilon();
  std::vector<std::pair<DocId, double>> expiring;
  for (DocId id : weights_.active_docs()) {
    const double w = weights_.Weight(id);
    if (w < epsilon) expiring.emplace_back(id, w);
  }
  std::vector<DocId> removed = weights_.RemoveBelow(epsilon);
  for (const auto& [id, w] : expiring) {
    terms_.RemoveDocument(corpus_->doc(id), w);
  }
  return removed;
}

void ForgettingModel::RemoveDocument(DocId id) {
  const double w = weights_.Weight(id);
  assert(weights_.Contains(id));
  weights_.Remove(id);
  terms_.RemoveDocument(corpus_->doc(id), w);
}

void ForgettingModel::RebuildFromScratch(const std::vector<DocId>& ids,
                                         DayTime tau) {
  weights_.Reset(tau);
  terms_.Clear();
  AddDocuments(ids);
}

ExactModelState ForgettingModel::CaptureExact() const {
  ExactModelState state;
  state.now = weights_.now();
  state.tdw = weights_.TotalWeight();
  state.weights = weights_.ExactWeights();
  state.term_scale = terms_.scale();
  state.term_sums = terms_.ExactSums();
  return state;
}

Status ForgettingModel::RestoreExact(const ExactModelState& state) {
  for (const auto& [id, weight] : state.weights) {
    (void)weight;
    if (id >= corpus_->size()) {
      return Status::InvalidArgument("exact state references document " +
                                     std::to_string(id) +
                                     " beyond the corpus");
    }
  }
  // Checked before TermStatistics sizes its arrays by the largest id.
  for (const auto& [term, sum] : state.term_sums) {
    (void)sum;
    if (term >= corpus_->vocabulary().size()) {
      return Status::InvalidArgument("exact state references term " +
                                     std::to_string(term) +
                                     " beyond the corpus vocabulary");
    }
  }
  Status st = weights_.RestoreExact(state.now, state.tdw, state.weights);
  if (st.ok()) st = terms_.RestoreExact(state.term_scale, state.term_sums);
  if (!st.ok()) {
    weights_.Reset(state.now);
    terms_.Clear();
  }
  return st;
}

double ForgettingModel::PrDoc(DocId id) const {
  const double tdw = weights_.TotalWeight();
  if (tdw <= 0.0) return 0.0;
  return weights_.Weight(id) / tdw;
}

double ForgettingModel::PrTerm(TermId term) const {
  return terms_.PrTerm(term, weights_.TotalWeight());
}

double ForgettingModel::Idf(TermId term) const {
  const double pr = PrTerm(term);
  if (pr <= 0.0) return 0.0;
  return 1.0 / std::sqrt(pr);
}

}  // namespace nidc
