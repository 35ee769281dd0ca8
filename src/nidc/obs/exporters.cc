#include "nidc/obs/exporters.h"

#include <unistd.h>

#include <algorithm>
#include <unordered_map>

#include "nidc/obs/json_util.h"
#include "nidc/util/env.h"

namespace nidc::obs {

std::string RenderMetricsJson(const std::vector<MetricSample>& samples) {
  JsonObjectBuilder builder;
  for (const MetricSample& sample : samples) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
      case MetricSample::Kind::kGauge:
        builder.Add(sample.name, sample.value);
        break;
      case MetricSample::Kind::kHistogram: {
        std::string buckets = "[";
        for (size_t i = 0; i < sample.buckets.size(); ++i) {
          if (i > 0) buckets += ",";
          buckets += JsonObjectBuilder()
                         .Add("le", sample.buckets[i].first)
                         .Add("count", sample.buckets[i].second)
                         .Render();
        }
        buckets += "]";
        builder.AddRaw(sample.name, JsonObjectBuilder()
                                        .Add("count", sample.count)
                                        .Add("sum", sample.sum)
                                        .AddRaw("buckets", buckets)
                                        .Render());
        break;
      }
    }
  }
  return builder.Render();
}

namespace {

bool IsPrometheusChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

// Generic one-liner for metrics without explicit help: derived from the
// family prefix so dashboards at least learn where a metric comes from.
std::string DefaultMetricHelp(const std::string& name) {
  const size_t dot = name.find('.');
  const std::string family = dot == std::string::npos
                                 ? std::string("misc")
                                 : name.substr(0, dot);
  return "nidc " + family + " family metric " + name +
         " (see docs/observability.md)";
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!IsPrometheusChar(c)) c = '_';
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

bool IsValidPrometheusName(const std::string& name) {
  if (name.empty()) return false;
  if (name[0] >= '0' && name[0] <= '9') return false;
  for (char c : name) {
    if (!IsPrometheusChar(c)) return false;
  }
  return true;
}

std::string PrometheusEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderPrometheus(const std::vector<MetricSample>& samples) {
  static const std::map<std::string, std::string> kNoHelp;
  return RenderPrometheus(samples, kNoHelp);
}

std::string RenderPrometheus(const std::vector<MetricSample>& samples,
                             const std::map<std::string, std::string>& help) {
  std::string out;
  for (const MetricSample& sample : samples) {
    const std::string name = PrometheusName(sample.name);
    auto it = help.find(sample.name);
    const std::string help_text = PrometheusEscapeHelp(
        it != help.end() ? it->second : DefaultMetricHelp(sample.name));
    out += "# HELP " + name + " " + help_text + "\n";
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + JsonNumber(sample.value) + "\n";
        break;
      case MetricSample::Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + JsonNumber(sample.value) + "\n";
        break;
      case MetricSample::Kind::kHistogram:
        out += "# TYPE " + name + " histogram\n";
        for (const auto& [le, count] : sample.buckets) {
          out += name + "_bucket{le=\"" +
                 PrometheusEscapeLabel(JsonNumber(le)) + "\"} " +
                 std::to_string(count) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(sample.count) +
               "\n";
        out += name + "_sum " + JsonNumber(sample.sum) + "\n";
        out += name + "_count " + std::to_string(sample.count) + "\n";
        break;
    }
  }
  return out;
}

JsonlWriter::~JsonlWriter() { Close(); }

Status JsonlWriter::Append(const std::string& json_object) {
  if (closed_) {
    return Status::FailedPrecondition("JsonlWriter already closed");
  }
  if (file_ == nullptr) {
    const std::string tmp = path_ + ".tmp";
    file_ = std::fopen(tmp.c_str(), "w");
    if (file_ == nullptr) {
      return Status::IOError("cannot open " + tmp + " for writing");
    }
  }
  if (std::fprintf(file_, "%s\n", json_object.c_str()) < 0 ||
      std::fflush(file_) != 0) {
    return Status::IOError("write to " + path_ + ".tmp failed");
  }
  ++lines_written_;
  return Status::OK();
}

Status JsonlWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (file_ == nullptr) return Status::OK();  // nothing appended
  const bool flushed = std::fflush(file_) == 0 &&
                       ::fsync(fileno(file_)) == 0;
  const bool file_closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flushed || !file_closed) {
    return Status::IOError("finalizing " + path_ + ".tmp failed");
  }
  return Env::Default()->RenameFile(path_ + ".tmp", path_);
}

void MetricsCsvSeries::AddStep(uint64_t step,
                               const std::vector<MetricSample>& samples) {
  // Scalar view: counters/gauges verbatim; histograms as .count and .sum.
  std::vector<std::pair<std::string, double>> scalars;
  for (const MetricSample& sample : samples) {
    if (sample.kind == MetricSample::Kind::kHistogram) {
      scalars.emplace_back(sample.name + ".count",
                           static_cast<double>(sample.count));
      scalars.emplace_back(sample.name + ".sum", sample.sum);
    } else {
      scalars.emplace_back(sample.name, sample.value);
    }
  }
  if (columns_.empty()) {
    for (const auto& [name, value] : scalars) columns_.push_back(name);
  }
  std::unordered_map<std::string, double> by_name(scalars.begin(),
                                                  scalars.end());
  std::vector<std::string> cells;
  cells.reserve(columns_.size());
  for (const std::string& column : columns_) {
    auto it = by_name.find(column);
    cells.push_back(it == by_name.end() ? std::string() : JsonNumber(it->second));
  }
  rows_.emplace_back(step, std::move(cells));
}

CsvWriter MetricsCsvSeries::BuildCsv() const {
  std::vector<std::string> header;
  header.push_back("step");
  header.insert(header.end(), columns_.begin(), columns_.end());
  CsvWriter csv(std::move(header));
  for (const auto& [step, cells] : rows_) {
    std::vector<std::string> row;
    row.reserve(cells.size() + 1);
    row.push_back(std::to_string(step));
    row.insert(row.end(), cells.begin(), cells.end());
    csv.AddRow(std::move(row));
  }
  return csv;
}

Status MetricsCsvSeries::WriteFile(const std::string& path) const {
  return BuildCsv().WriteFile(path);
}

std::string MetricsCsvSeries::ToString() const {
  return BuildCsv().ToString();
}

}  // namespace nidc::obs
