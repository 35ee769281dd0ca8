#include "nidc/baselines/tfidf_model.h"

#include <cassert>
#include <cmath>

namespace nidc {

TfIdfModel::TfIdfModel(const Corpus& corpus, const std::vector<DocId>& docs)
    : docs_(docs) {
  // Document frequencies within the subset.
  std::unordered_map<TermId, size_t> df;
  for (DocId id : docs_) {
    for (const auto& e : corpus.doc(id).terms) ++df[e.id];
  }
  const double n = static_cast<double>(docs_.size());
  idf_.reserve(df.size());
  for (const auto& [term, count] : df) {
    idf_[term] = std::log(n / static_cast<double>(count));
  }

  vectors_.reserve(docs_.size());
  index_.reserve(docs_.size());
  for (size_t i = 0; i < docs_.size(); ++i) {
    const Document& doc = corpus.doc(docs_[i]);
    std::vector<SparseVector::Entry> entries;
    entries.reserve(doc.terms.size());
    for (const auto& e : doc.terms) {
      const double tf = e.count;
      const double weight = tf * Idf(e.id);
      if (weight > 0.0) entries.push_back({e.id, weight});
    }
    SparseVector v = SparseVector::FromEntries(std::move(entries));
    const double norm = v.Norm();
    if (norm > 0.0) v.ScaleInPlace(1.0 / norm);
    vectors_.push_back(std::move(v));
    index_.emplace(docs_[i], i);
  }
}

const SparseVector& TfIdfModel::Vector(DocId id) const {
  auto it = index_.find(id);
  assert(it != index_.end());
  return vectors_[it->second];
}

double TfIdfModel::Cosine(DocId a, DocId b) const {
  return Vector(a).Dot(Vector(b));
}

double TfIdfModel::Idf(TermId term) const {
  auto it = idf_.find(term);
  return it == idf_.end() ? 0.0 : it->second;
}

}  // namespace nidc
