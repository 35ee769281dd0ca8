// Per-document decision provenance: a bounded ring that records, for every
// document the extended K-means settled (assigned, outlier or reseed), the
// top-2 cluster gains, their margin, and the scoring path and kernel that
// produced them.
//
// The sweeps capture these values as a side effect of the argmax they
// already compute (a handful of scalar stores per document; nothing is
// re-scored), so a decision is auditable after the fact:
//   "why did doc 4812 land in cluster 17?"  →  /explainz?doc=4812
// answers with the winning gain, the runner-up cluster it beat and by how
// much, and which code path made the call.
//
// Margins are decision-bar relative: both gains are floored at 0, the
// outlier bar the sweeps apply, so `margin == best_gain - runner_up_gain`
// is always >= 0 and bit-identical across kMerge / kSlotted (the paths
// compute bit-identical gain vectors; the equivalence test proves the
// recorded margins match).
//
// Like every obs hook, the capture sites take a `ProvenanceLog*` that
// defaults to null, and a null log adds no work to the sweeps.

#ifndef NIDC_OBS_PROVENANCE_H_
#define NIDC_OBS_PROVENANCE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/obs/ring.h"
#include "nidc/util/status.h"

namespace nidc::obs {

/// What the sweep decided for the document.
enum class ProvenanceVerdict : uint8_t {
  kAssigned,  ///< joined the cluster with the best positive gain
  kOutlier,   ///< no cluster's gain cleared the > 0 bar
  kReseeded,  ///< fell to the bar but re-populated an empty cluster
};

/// Which scoring path produced the gains (mirrors core's ClusterScoring —
/// duplicated here because obs sits below core in the layering).
enum class ProvenancePath : uint8_t { kMerge, kSlotted };

const char* ProvenanceVerdictName(ProvenanceVerdict verdict);
const char* ProvenancePathName(ProvenancePath path);

/// One settled per-document decision.
struct DecisionRecord {
  /// Sentinel for "not applicable" id fields.
  static constexpr uint64_t kNoId = ~0ull;

  uint64_t doc = kNoId;
  /// Monotone per-log sequence number, assigned by Record.
  uint64_t sequence = 0;
  /// Pipeline step active when the record was captured (see SetStep).
  uint64_t step = 0;
  /// K-means iteration (1-based) whose sweep settled the decision.
  uint32_t iteration = 0;

  ProvenanceVerdict verdict = ProvenanceVerdict::kOutlier;
  ProvenancePath path = ProvenancePath::kMerge;
  /// Active scoring-kernel name ("" outside the slotted path). Points at
  /// the dispatch table's static strings — no ownership.
  const char* kernel = "";

  /// Stable id of the winning cluster (kNoId for outliers).
  uint64_t cluster_id = kNoId;
  /// Stable id of the best rival the winner beat (kNoId when no rival
  /// cleared the bar).
  uint64_t runner_up_id = kNoId;

  /// Winning gain and best rival gain, both floored at the 0 outlier bar.
  double best_gain = 0.0;
  double runner_up_gain = 0.0;
  /// best_gain - runner_up_gain, always >= 0.
  double margin = 0.0;
};

/// Renders one record as a JSON object (omitting kNoId fields).
std::string RenderDecisionJson(const DecisionRecord& record);

/// Bounded, thread-safe ring of decision records with a latest-record
/// index by document id. When `metrics` is supplied, publishes
/// `provenance.records` / `provenance.dropped` counters and the
/// `provenance.retained` gauge.
class ProvenanceLog {
 public:
  explicit ProvenanceLog(size_t capacity = 4096,
                         MetricsRegistry* metrics = nullptr);

  ProvenanceLog(const ProvenanceLog&) = delete;
  ProvenanceLog& operator=(const ProvenanceLog&) = delete;

  /// Tags subsequent records with `step`.
  void SetStep(uint64_t step);

  /// Appends one record, assigning its sequence number and step tag. The
  /// oldest record is overwritten when the ring is full.
  void Record(DecisionRecord record);

  /// Appends a batch under one lock — the flush path RunExtendedKMeans
  /// uses at the end of a run.
  void RecordBatch(const std::vector<DecisionRecord>& records);

  /// The newest record for `doc`, if it is still retained.
  std::optional<DecisionRecord> Lookup(uint64_t doc) const;

  /// The newest `max_records` records, oldest first.
  std::vector<DecisionRecord> Recent(size_t max_records = ~size_t{0}) const;

  uint64_t total_recorded() const;
  /// Records lost to ring wrap-around.
  uint64_t dropped() const;

  size_t capacity() const { return ring_.capacity(); }
  size_t size() const;

  /// Writes the retained records as JSONL (one RenderDecisionJson object
  /// per line) via the atomic-rename JsonlWriter protocol.
  Status ExportJsonl(const std::string& path) const;

 private:
  // Stamps and pushes one record; returns true when it overwrote the
  // oldest.
  bool RecordLocked(DecisionRecord record);
  void PublishCountersLocked(uint64_t recorded, uint64_t dropped);
  void RebuildIndexLocked() const;

  Counter* records_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Gauge* retained_gauge_ = nullptr;

  mutable std::mutex mu_;
  BoundedRing<DecisionRecord> ring_;  // sequence is the ring sequence
  /// doc -> sequence of its newest retained record. Rebuilt lazily: the
  /// record path only marks it stale, so flushing a batch costs plain ring
  /// stores and the (rare, introspection-driven) Lookup pays the rebuild.
  mutable std::unordered_map<uint64_t, uint64_t> latest_;
  mutable bool index_stale_ = false;
  uint64_t current_step_ = 0;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_PROVENANCE_H_
