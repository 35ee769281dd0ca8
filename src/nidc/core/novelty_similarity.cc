#include "nidc/core/novelty_similarity.h"

#include <algorithm>

#include "nidc/util/logging.h"

namespace nidc {

SimilarityContext::SimilarityContext(const ForgettingModel& model) {
  docs_ = model.active_docs();
  const Corpus& corpus = model.corpus();
  // A row holds at most its document's term count; CompactArena closes
  // the gaps that terms with no idf leave.
  row_offsets_.resize(docs_.size() + 1);
  row_offsets_[0] = 0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    row_offsets_[i + 1] =
        row_offsets_[i] + corpus.doc(docs_[i]).terms.size();
  }
  row_terms_.resize(row_offsets_.back());
  row_values_.resize(row_offsets_.back());
  std::vector<uint32_t> row_sizes(docs_.size());

  // Writes ψ_i with *global* term ids, ascending like the document's terms.
  for (size_t i = 0; i < docs_.size(); ++i) {
    const DocId id = docs_[i];
    const Document& doc = corpus.doc(id);
    const double len = doc.Length();
    const double pr = model.PrDoc(id);
    uint32_t* terms = row_terms_.data() + row_offsets_[i];
    double* values = row_values_.data() + row_offsets_[i];
    uint32_t n = 0;
    if (len > 0.0 && pr > 0.0) {
      const double unit = pr / len;
      for (const auto& e : doc.terms.entries()) {
        const double idf = model.Idf(e.id);
        if (idf <= 0.0) continue;
        terms[n] = e.id;
        values[n] = unit * e.count * idf;
        ++n;
      }
    }
    row_sizes[i] = n;
  }

  BuildSlots();
  CompactArena(row_sizes);
}

void SimilarityContext::BuildSlots() {
  // DocId → slot. Active ids are dense corpus indices within a window, so
  // a flat array over [min, max] with a sentinel replaces a hash map; it
  // does not grow with the ids released before the window.
  if (docs_.empty()) return;
  const auto [min_doc, max_doc] =
      std::minmax_element(docs_.begin(), docs_.end());
  first_doc_ = *min_doc;
  slot_of_.assign(static_cast<size_t>(*max_doc - first_doc_) + 1, kNoSlot);
  for (size_t i = 0; i < docs_.size(); ++i) {
    slot_of_[docs_[i] - first_doc_] = static_cast<Slot>(i);
  }
}

void SimilarityContext::CompactArena(const std::vector<uint32_t>& row_sizes) {
  // Each row ascends, so its last entry holds its largest term.
  TermId max_term = 0;
  size_t total_entries = 0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (row_sizes[i] == 0) continue;
    total_entries += row_sizes[i];
    max_term = std::max(max_term,
                        row_terms_[row_offsets_[i] + row_sizes[i] - 1]);
  }

  // One pass moves every row down over the gaps before it and assigns
  // local term ids in first-appearance order over slots — deterministic
  // for a given active set. Writes never overtake reads.
  global_to_local_.assign(total_entries == 0
                              ? 0
                              : static_cast<size_t>(max_term) + 1,
                          kNoLocalTerm);
  size_t out = 0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    const size_t begin = row_offsets_[i];
    row_offsets_[i] = out;
    for (size_t k = begin; k < begin + row_sizes[i]; ++k) {
      const TermId term = row_terms_[k];
      uint32_t& local = global_to_local_[term];
      if (local == kNoLocalTerm) {
        local = static_cast<uint32_t>(local_to_global_.size());
        local_to_global_.push_back(term);
      }
      row_terms_[out] = local;
      row_values_[out] = row_values_[k];
      ++out;
    }
  }
  row_offsets_[docs_.size()] = out;
  row_terms_.resize(out);
  row_values_.resize(out);

  self_sim_.resize(docs_.size());
  for (size_t i = 0; i < docs_.size(); ++i) {
    self_sim_[i] = PsiAt(static_cast<Slot>(i)).SquaredNorm();
  }
}

size_t SimilarityContext::bytes() const {
  return docs_.capacity() * sizeof(DocId) +
         slot_of_.capacity() * sizeof(Slot) +
         self_sim_.capacity() * sizeof(double) +
         row_offsets_.capacity() * sizeof(size_t) +
         row_terms_.capacity() * sizeof(uint32_t) +
         row_values_.capacity() * sizeof(double) +
         global_to_local_.capacity() * sizeof(uint32_t) +
         local_to_global_.capacity() * sizeof(TermId);
}

double SimilarityContext::Sim(DocId a, DocId b) const {
  return Psi(a).Dot(Psi(b));
}

SimilarityContext::Slot SimilarityContext::SlotOf(DocId id) const {
  NIDC_CHECK(Contains(id)) << "SimilarityContext::SlotOf: document " << id
                           << " is not in the snapshot";
  return slot_of_[id - first_doc_];
}

double SimilarityContext::SelfSim(DocId id) const {
  NIDC_CHECK(Contains(id)) << "SimilarityContext::SelfSim: document " << id
                           << " is not in the snapshot";
  return self_sim_[slot_of_[id - first_doc_]];
}

double NoveltySimilarityReference(const ForgettingModel& model, DocId a,
                                  DocId b) {
  const Document& da = model.corpus().doc(a);
  const Document& db = model.corpus().doc(b);
  const double len_a = da.Length();
  const double len_b = db.Length();
  if (len_a <= 0.0 || len_b <= 0.0) return 0.0;
  // d⃗_i · d⃗_j with components tf_ik · idf_k (Eq. 12–14).
  double dot = 0.0;
  for (const auto& ea : da.terms.entries()) {
    const double fb = db.terms.ValueAt(ea.id);
    if (fb == 0.0) continue;
    const double fa = ea.count;
    const double idf = model.Idf(ea.id);
    dot += (fa * idf) * (fb * idf);
  }
  return model.PrDoc(a) * model.PrDoc(b) * dot / (len_a * len_b);
}

}  // namespace nidc
