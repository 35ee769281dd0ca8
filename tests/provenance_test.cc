#include "nidc/obs/provenance.h"

#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nidc/core/extended_kmeans.h"
#include "nidc/obs/json_util.h"
#include "nidc/obs/metrics.h"

namespace nidc {
namespace {

obs::DecisionRecord Assigned(uint64_t doc, uint64_t cluster) {
  obs::DecisionRecord record;
  record.doc = doc;
  record.verdict = obs::ProvenanceVerdict::kAssigned;
  record.cluster_id = cluster;
  record.runner_up_id = cluster + 1;
  record.best_gain = 0.5;
  record.runner_up_gain = 0.25;
  record.margin = 0.25;
  return record;
}

TEST(ProvenanceLogTest, RecordAssignsSequenceAndStep) {
  obs::ProvenanceLog log(8);
  log.SetStep(3);
  log.Record(Assigned(10, 0));
  log.Record(Assigned(11, 1));
  const std::vector<obs::DecisionRecord> records = log.Recent();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 0u);
  EXPECT_EQ(records[1].sequence, 1u);
  EXPECT_EQ(records[0].step, 3u);
  EXPECT_EQ(records[1].step, 3u);
}

TEST(ProvenanceLogTest, RingEvictionDropsOldestAndForgetsLookup) {
  obs::ProvenanceLog log(4);
  for (uint64_t doc = 0; doc < 6; ++doc) log.Record(Assigned(doc, 0));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  // The two oldest decisions are gone from the ring *and* the doc index.
  EXPECT_FALSE(log.Lookup(0).has_value());
  EXPECT_FALSE(log.Lookup(1).has_value());
  ASSERT_TRUE(log.Lookup(5).has_value());
  const std::vector<obs::DecisionRecord> records = log.Recent();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().doc, 2u);
  EXPECT_EQ(records.back().doc, 5u);
  const std::vector<obs::DecisionRecord> capped = log.Recent(2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[0].doc, 4u);
  EXPECT_EQ(capped[1].doc, 5u);
}

TEST(ProvenanceLogTest, LookupReturnsNewestRecordForDoc) {
  obs::ProvenanceLog log(8);
  log.Record(Assigned(7, 1));
  log.Record(Assigned(7, 2));
  const std::optional<obs::DecisionRecord> record = log.Lookup(7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->sequence, 1u);
  EXPECT_EQ(record->cluster_id, 2u);
}

TEST(ProvenanceLogTest, OverwritingOlderDuplicateKeepsNewerIndexEntry) {
  // Ring of 2 holding two records for doc 7: evicting the older one must
  // not drop the doc-index entry that points at the newer record.
  obs::ProvenanceLog log(2);
  log.Record(Assigned(7, 1));
  log.Record(Assigned(7, 2));
  log.Record(Assigned(8, 3));  // overwrites sequence 0 (doc 7, cluster 1)
  const std::optional<obs::DecisionRecord> record = log.Lookup(7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->sequence, 1u);
  EXPECT_EQ(record->cluster_id, 2u);
  ASSERT_TRUE(log.Lookup(8).has_value());
}

TEST(ProvenanceLogTest, PublishesCountersAndRetainedGauge) {
  obs::MetricsRegistry registry;
  obs::ProvenanceLog log(2, &registry);
  EXPECT_EQ(registry.GetCounter("provenance.records")->Value(), 0u);
  for (uint64_t doc = 0; doc < 3; ++doc) log.Record(Assigned(doc, 0));
  EXPECT_EQ(registry.GetCounter("provenance.records")->Value(), 3u);
  EXPECT_EQ(registry.GetCounter("provenance.dropped")->Value(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("provenance.retained")->Value(), 2.0);
}

TEST(ProvenanceLogTest, JsonOmitsInapplicableFields) {
  obs::DecisionRecord outlier;
  outlier.doc = 42;
  outlier.verdict = obs::ProvenanceVerdict::kOutlier;
  const std::string json = obs::RenderDecisionJson(outlier);
  const Result<obs::JsonValue> parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->Find("verdict")->string_value, "outlier");
  EXPECT_EQ(parsed->Find("path")->string_value, "merge");
  EXPECT_EQ(parsed->Find("cluster"), nullptr);
  EXPECT_EQ(parsed->Find("runner_up"), nullptr);
  EXPECT_EQ(parsed->Find("kernel"), nullptr);

  obs::DecisionRecord assigned = Assigned(7, 17);
  assigned.path = obs::ProvenancePath::kSlotted;
  assigned.kernel = "avx512";
  const Result<obs::JsonValue> full =
      obs::ParseJson(obs::RenderDecisionJson(assigned));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->Find("path")->string_value, "slotted");
  EXPECT_EQ(full->Find("kernel")->string_value, "avx512");
  EXPECT_DOUBLE_EQ(full->Find("cluster")->number, 17.0);
  EXPECT_DOUBLE_EQ(full->Find("runner_up")->number, 18.0);
  EXPECT_DOUBLE_EQ(full->Find("margin")->number, 0.25);
}

TEST(ProvenanceLogTest, ExportJsonlWritesParseableLines) {
  obs::ProvenanceLog log(8);
  log.SetStep(2);
  log.Record(Assigned(10, 0));
  obs::DecisionRecord outlier;
  outlier.doc = 11;
  log.Record(outlier);

  const std::string path = testing::TempDir() + "/provenance_test.jsonl";
  ASSERT_TRUE(log.ExportJsonl(path).ok());

  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const Result<obs::JsonValue> parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object());
    EXPECT_NE(parsed->Find("doc"), nullptr);
    EXPECT_NE(parsed->Find("verdict"), nullptr);
    EXPECT_NE(parsed->Find("margin"), nullptr);
  }
  EXPECT_EQ(lines, 2u);
}

// ---------------------------------------------------------------------------
// Path-equivalence property: the margins the sweeps record must be
// bit-identical across the merge, indexed and slotted scoring paths —
// the same guarantee the clustering-equivalence tests prove for the
// assignments themselves, extended to the provenance capture.

class ProvenanceEquivalenceTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* iraq[] = {"iraq weapons inspection baghdad",
                          "iraq sanctions embargo baghdad",
                          "iraq inspectors weapons crisis",
                          "baghdad standoff weapons inspection"};
    const char* games[] = {"olympics skating medal nagano",
                           "olympics hockey nagano final",
                           "skating gold nagano games",
                           "olympics medal ceremony games"};
    const char* court[] = {"tobacco settlement senate lawsuit",
                           "tobacco lawsuit billions settlement",
                           "senate vote tobacco bill",
                           "settlement lawsuit vote senate"};
    DayTime t = 0.0;
    for (const char* s : iraq) corpus_.AddText(s, t += 0.1, 1);
    for (const char* s : games) corpus_.AddText(s, t += 0.1, 2);
    for (const char* s : court) corpus_.AddText(s, t += 0.1, 3);
    ForgettingParams p;
    p.half_life_days = 7.0;
    p.life_span_days = 365.0;
    model_ = std::make_unique<ForgettingModel>(&corpus_, p);
    model_->AdvanceTo(2.0);
    std::vector<DocId> ids(12);
    for (DocId d = 0; d < 12; ++d) ids[d] = d;
    model_->AddDocuments(ids);
    ctx_ = std::make_unique<SimilarityContext>(*model_);
    docs_ = ids;
  }

  // Runs the extended K-means with a provenance sink and returns the
  // flushed decisions keyed by document id.
  std::map<uint64_t, obs::DecisionRecord> Decisions(ClusterScoring scoring) {
    obs::ProvenanceLog log(64);
    ExtendedKMeansOptions opts;
    opts.k = 3;
    opts.seed = 5;
    opts.scoring = scoring;
    opts.provenance = &log;
    const Result<ClusteringResult> result =
        RunExtendedKMeans(*ctx_, docs_, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::map<uint64_t, obs::DecisionRecord> by_doc;
    for (const obs::DecisionRecord& record : log.Recent()) {
      by_doc[record.doc] = record;
    }
    return by_doc;
  }

  Corpus corpus_;
  std::unique_ptr<ForgettingModel> model_;
  std::unique_ptr<SimilarityContext> ctx_;
  std::vector<DocId> docs_;
};

TEST_F(ProvenanceEquivalenceTest, MarginsBitIdenticalAcrossScoringPaths) {
  const auto merge = Decisions(ClusterScoring::kMerge);
  const auto slotted = Decisions(ClusterScoring::kSlotted);
  ASSERT_EQ(merge.size(), docs_.size());
  ASSERT_EQ(slotted.size(), docs_.size());
  for (DocId id : docs_) {
    const obs::DecisionRecord& m = merge.at(id);
    const obs::DecisionRecord& s = slotted.at(id);
    EXPECT_EQ(m.path, obs::ProvenancePath::kMerge);
    EXPECT_EQ(s.path, obs::ProvenancePath::kSlotted);
    EXPECT_STREQ(m.kernel, "");
    EXPECT_GT(std::strlen(s.kernel), 0u);
    EXPECT_EQ(m.verdict, s.verdict) << "doc " << id;
    EXPECT_EQ(m.cluster_id, s.cluster_id) << "doc " << id;
    EXPECT_EQ(m.runner_up_id, s.runner_up_id) << "doc " << id;
    // EXPECT_EQ on doubles is exact comparison — bit-identical gains, not
    // approximately-equal ones.
    EXPECT_EQ(m.best_gain, s.best_gain) << "doc " << id;
    EXPECT_EQ(m.runner_up_gain, s.runner_up_gain) << "doc " << id;
    EXPECT_EQ(m.margin, s.margin) << "doc " << id;
    EXPECT_EQ(m.margin, m.best_gain - m.runner_up_gain);
    EXPECT_GE(m.margin, 0.0);
    if (m.verdict == obs::ProvenanceVerdict::kAssigned) {
      EXPECT_NE(m.cluster_id, obs::DecisionRecord::kNoId);
      EXPECT_GT(m.best_gain, 0.0);
    } else if (m.verdict == obs::ProvenanceVerdict::kOutlier) {
      EXPECT_EQ(m.cluster_id, obs::DecisionRecord::kNoId);
    }
  }
}

}  // namespace
}  // namespace nidc
