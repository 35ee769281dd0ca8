// Telemetry exporters over MetricsRegistry snapshots.
//
// Three formats, three audiences:
//   * JSONL  — one self-contained JSON record per pipeline step, for
//     offline analysis of trajectories (G per step, outlier churn, ...);
//   * CSV    — scalar metrics as a per-step time series (reuses
//     util/csv_writer), for spreadsheet/plotting workflows;
//   * Prometheus text exposition — a point-in-time dump of the whole
//     registry in the format scrapers ingest.

#ifndef NIDC_OBS_EXPORTERS_H_
#define NIDC_OBS_EXPORTERS_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/util/csv_writer.h"
#include "nidc/util/status.h"

namespace nidc::obs {

/// Renders a snapshot as one JSON object: counters and gauges as
/// `"name": value`, histograms as
/// `"name": {"count":..,"sum":..,"buckets":[{"le":..,"count":..},...]}`.
std::string RenderMetricsJson(const std::vector<MetricSample>& samples);

/// Flattens a registry name into the Prometheus exposition charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: invalid characters become '_' and a
/// leading digit gains a '_' prefix, so the result always validates.
std::string PrometheusName(const std::string& name);

/// True when `name` matches the exposition charset above (non-empty, no
/// leading digit).
bool IsValidPrometheusName(const std::string& name);

/// Escapes HELP text for the exposition format: `\` -> `\\` and a line
/// feed -> the two characters `\n` (a HELP line must stay one line).
std::string PrometheusEscapeHelp(const std::string& text);

/// Escapes a label value for the exposition format: `\` -> `\\`,
/// `"` -> `\"` and line feed -> `\n`.
std::string PrometheusEscapeLabel(const std::string& value);

/// Renders a snapshot in the Prometheus text exposition format (metric
/// names flattened via PrometheusName; histograms expand to _bucket/
/// _sum/_count families). Every metric gets a `# HELP` line — from
/// `help` when it carries the (registry, unflattened) name, otherwise a
/// family-derived default — escaped via PrometheusEscapeHelp.
std::string RenderPrometheus(const std::vector<MetricSample>& samples);
std::string RenderPrometheus(const std::vector<MetricSample>& samples,
                             const std::map<std::string, std::string>& help);

/// Line-per-record sink for JSONL telemetry. Opens lazily on the first
/// append, streaming into `path.tmp`; Close() (also run by the
/// destructor) fsyncs and atomically renames onto `path`, so an existing
/// file is only ever replaced by a complete run. A crashed run leaves its
/// parseable partial output under `path.tmp` and the previous file
/// untouched.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::string path) : path_(std::move(path)) {}
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  /// Appends `json_object` (one already-rendered record, no newline) as a
  /// line, flushing so partial runs still leave parseable output.
  Status Append(const std::string& json_object);

  /// Publishes the accumulated records at `path` (fsync + atomic rename).
  /// No-op when nothing was appended or already closed; call explicitly
  /// to observe failures the destructor would swallow.
  Status Close();

  const std::string& path() const { return path_; }
  size_t lines_written() const { return lines_written_; }

 private:
  std::string path_;
  FILE* file_ = nullptr;
  size_t lines_written_ = 0;
  bool closed_ = false;
};

/// Accumulates per-step rows of every *scalar* metric (counters and
/// gauges; histograms export their count and sum) into a CSV time series.
/// The column set is fixed by the first snapshot; later snapshots missing
/// a column emit an empty cell and new names are ignored — steps stay
/// comparable.
class MetricsCsvSeries {
 public:
  void AddStep(uint64_t step, const std::vector<MetricSample>& samples);

  size_t num_steps() const { return rows_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Writes "step,<metric columns...>" + one row per AddStep.
  Status WriteFile(const std::string& path) const;
  std::string ToString() const;

 private:
  CsvWriter BuildCsv() const;

  std::vector<std::string> columns_;  // metric column names, fixed on first use
  std::vector<std::pair<uint64_t, std::vector<std::string>>> rows_;
};

}  // namespace nidc::obs

#endif  // NIDC_OBS_EXPORTERS_H_
