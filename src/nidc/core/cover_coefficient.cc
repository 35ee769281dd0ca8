#include "nidc/core/cover_coefficient.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace nidc {

size_t CoverCoefficients::EstimatedClusterCount() const {
  return static_cast<size_t>(std::max(1.0, std::round(nc)));
}

CoverCoefficients ComputeCoverCoefficients(const ForgettingModel& model) {
  CoverCoefficients out;
  out.docs = model.active_docs();

  // Column sums Σ_i w_ik with w_ik = dw_i·f_ik.
  std::unordered_map<TermId, double> column_sum;
  for (DocId id : out.docs) {
    const Document& doc = model.corpus().doc(id);
    const double dw = model.Weight(id);
    for (const auto& e : doc.terms.entries()) {
      column_sum[e.id] += dw * e.count;
    }
  }

  out.decoupling.reserve(out.docs.size());
  out.seed_power.reserve(out.docs.size());
  double nc = 0.0;
  for (DocId id : out.docs) {
    const Document& doc = model.corpus().doc(id);
    const double dw = model.Weight(id);
    const double row_sum = dw * doc.Length();
    double delta = 0.0;
    if (row_sum > 0.0) {
      const double alpha = 1.0 / row_sum;
      for (const auto& e : doc.terms.entries()) {
        const double w = dw * e.count;
        const double beta_denominator = column_sum[e.id];
        if (beta_denominator > 0.0) {
          delta += alpha * w * w / beta_denominator;
        }
      }
    }
    out.decoupling.push_back(delta);
    out.seed_power.push_back(delta * (1.0 - delta) * row_sum);
    nc += delta;
  }
  out.nc = std::max(1.0, nc);
  return out;
}

}  // namespace nidc
