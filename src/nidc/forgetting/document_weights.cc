#include "nidc/forgetting/document_weights.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nidc {

DocumentWeights::DocumentWeights(double lambda) : lambda_(lambda) {
  assert(lambda > 0.0 && lambda < 1.0);
}

void DocumentWeights::AdvanceTo(DayTime tau) {
  assert(tau >= now_);
  if (tau == now_) return;
  // Eq. 27: dw|τ+Δτ = λ^Δτ · dw|τ ; Eq. 28's decay half for tdw.
  const double decay = std::pow(lambda_, tau - now_);
  for (double& weight : dw_) weight *= decay;
  tdw_ *= decay;
  now_ = tau;
}

uint32_t& DocumentWeights::PositionSlot(DocId id) {
  if (active_.empty()) {
    pos_.clear();
    first_ = id;
  } else if (id < first_) {
    pos_.insert(pos_.begin(), first_ - id, kNoPosition);
    first_ = id;
  }
  if (id - first_ >= pos_.size()) {
    pos_.resize(static_cast<size_t>(id - first_) + 1, kNoPosition);
  }
  return pos_[id - first_];
}

void DocumentWeights::RebuildPositions() {
  pos_.clear();
  if (active_.empty()) return;
  const auto [min_id, max_id] =
      std::minmax_element(active_.begin(), active_.end());
  first_ = *min_id;
  pos_.resize(static_cast<size_t>(*max_id - first_) + 1, kNoPosition);
  for (size_t i = 0; i < active_.size(); ++i) {
    pos_[active_[i] - first_] = static_cast<uint32_t>(i);
  }
}

void DocumentWeights::Add(DocId id, DayTime acquisition_time) {
  assert(!Contains(id));
  assert(acquisition_time <= now_);
  // Eq. 1 at the current clock; exactly 1 when T_i == now.
  const double weight = std::pow(lambda_, now_ - acquisition_time);
  PositionSlot(id) = static_cast<uint32_t>(active_.size());
  active_.push_back(id);
  dw_.push_back(weight);
  tdw_ += weight;  // Eq. 28's "+ m'" generalized to back-dated arrivals.
}

void DocumentWeights::Remove(DocId id) {
  const uint32_t pos = PositionOf(id);
  assert(pos != kNoPosition);
  tdw_ -= dw_[pos];
  pos_[id - first_] = kNoPosition;
  const size_t last = active_.size() - 1;
  if (pos != last) {
    active_[pos] = active_[last];
    dw_[pos] = dw_[last];
    pos_[active_[pos] - first_] = pos;
  }
  active_.pop_back();
  dw_.pop_back();
}

std::vector<DocId> DocumentWeights::RemoveBelow(double epsilon) {
  std::vector<DocId> removed;
  size_t kept = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    if (dw_[i] < epsilon) {
      tdw_ -= dw_[i];
      removed.push_back(active_[i]);
    } else {
      active_[kept] = active_[i];
      dw_[kept] = dw_[i];
      ++kept;
    }
  }
  active_.resize(kept);
  dw_.resize(kept);
  RebuildPositions();
  return removed;
}

void DocumentWeights::Reset(DayTime tau) {
  active_.clear();
  dw_.clear();
  pos_.clear();
  tdw_ = 0.0;
  now_ = tau;
}

std::vector<std::pair<DocId, double>> DocumentWeights::ExactWeights() const {
  std::vector<std::pair<DocId, double>> out;
  out.reserve(active_.size());
  for (size_t i = 0; i < active_.size(); ++i) {
    out.emplace_back(active_[i], dw_[i]);
  }
  return out;
}

Status DocumentWeights::RestoreExact(
    DayTime now, double tdw,
    const std::vector<std::pair<DocId, double>>& weights) {
  if (!std::isfinite(now) || !std::isfinite(tdw) || tdw < 0.0) {
    return Status::InvalidArgument("non-finite clock or total weight");
  }
  Reset(now);
  for (const auto& [id, weight] : weights) {
    uint32_t& slot = PositionSlot(id);
    if (slot != kNoPosition) {
      return Status::InvalidArgument("duplicate document " +
                                     std::to_string(id) + " in weights");
    }
    if (!std::isfinite(weight) || weight <= 0.0) {
      return Status::InvalidArgument("invalid weight for document " +
                                     std::to_string(id));
    }
    slot = static_cast<uint32_t>(active_.size());
    active_.push_back(id);
    dw_.push_back(weight);
  }
  tdw_ = tdw;
  return Status::OK();
}

double DocumentWeights::Weight(DocId id) const {
  const uint32_t pos = PositionOf(id);
  return pos == kNoPosition ? 0.0 : dw_[pos];
}

}  // namespace nidc
