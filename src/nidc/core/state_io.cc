#include "nidc/core/state_io.h"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "nidc/util/string_util.h"

namespace nidc {

namespace {

template <typename T>
void AppendNumber(std::string* out, T value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

// "<tag> <n> <id>*n\n"
void AppendIds(std::string* out, const char* tag,
               const std::vector<DocId>& ids) {
  out->append(tag);
  out->push_back(' ');
  AppendNumber(out, ids.size());
  for (DocId id : ids) {
    out->push_back(' ');
    AppendNumber(out, id);
  }
  out->push_back('\n');
}

// Reads "<tag> <n> <id>*n" from the stream.
bool ReadIds(std::istringstream& in, const std::string& expected_tag,
             std::vector<DocId>* ids) {
  std::string tag;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != expected_tag) return false;
  ids->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> (*ids)[i])) return false;
  }
  return true;
}

// Hex floats (%a) round-trip doubles bit-exactly; iostream extraction does
// not parse them, so exact-section values go through strtod.
bool ReadHexDouble(std::istringstream& in, double* value) {
  std::string token;
  if (!(in >> token)) return false;
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

template <typename Id>
void EmitExactPairs(std::ostringstream& out, const char* tag,
                    const std::vector<std::pair<Id, double>>& pairs) {
  out << tag << ' ' << pairs.size();
  for (const auto& [id, value] : pairs) {
    out << ' ' << id << ' ' << StringPrintf("%a", value);
  }
  out << '\n';
}

template <typename Id>
bool ReadExactPairs(std::istringstream& in, const std::string& expected_tag,
                    std::vector<std::pair<Id, double>>* pairs) {
  std::string tag;
  size_t n = 0;
  if (!(in >> tag >> n) || tag != expected_tag) return false;
  pairs->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> (*pairs)[i].first)) return false;
    if (!ReadHexDouble(in, &(*pairs)[i].second)) return false;
  }
  return true;
}

Status ParseExactSection(std::istringstream& in, ExactModelState* exact) {
  std::string word;
  if (!(in >> word) || word != "now" || !ReadHexDouble(in, &exact->now)) {
    return Status::InvalidArgument("malformed exact now field");
  }
  if (!(in >> word) || word != "tdw" || !ReadHexDouble(in, &exact->tdw)) {
    return Status::InvalidArgument("malformed exact tdw field");
  }
  if (!ReadExactPairs(in, "weights", &exact->weights)) {
    return Status::InvalidArgument("malformed exact weights list");
  }
  if (!(in >> word) || word != "scale" ||
      !ReadHexDouble(in, &exact->term_scale)) {
    return Status::InvalidArgument("malformed exact scale field");
  }
  if (!ReadExactPairs(in, "terms", &exact->term_sums)) {
    return Status::InvalidArgument("malformed exact terms list");
  }
  return Status::OK();
}

// The result section after its "clusters" word; `count_token` is the
// cluster count that follows it.
Status ParseResultBody(std::istringstream& in, const std::string& count_token,
                       ClusteringResult* result) {
  size_t num_clusters = 0;
  try {
    num_clusters = static_cast<size_t>(std::stoul(count_token));
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad cluster count: " + count_token);
  }
  result->clusters.resize(num_clusters);
  for (size_t p = 0; p < num_clusters; ++p) {
    if (!ReadIds(in, "cluster", &result->clusters[p])) {
      return Status::InvalidArgument("malformed cluster member list");
    }
  }
  if (!ReadIds(in, "outliers", &result->outliers)) {
    return Status::InvalidArgument("malformed outlier list");
  }
  std::string word;
  int converged = 0;
  if (!(in >> word >> result->g) || word != "g") {
    return Status::InvalidArgument("malformed g line");
  }
  if (!(in >> word >> result->iterations >> converged) ||
      word != "iterations") {
    return Status::InvalidArgument("malformed iterations line");
  }
  result->converged = converged != 0;
  return Status::OK();
}

}  // namespace

void AppendResultSection(const ClusteringResult& result, std::string* out) {
  out->append("clusters ");
  AppendNumber(out, result.clusters.size());
  out->push_back('\n');
  for (const auto& members : result.clusters) {
    AppendIds(out, "cluster", members);
  }
  AppendIds(out, "outliers", result.outliers);
  // %.17g is what an ostream at precision 17 prints, so snapshots keep
  // their bytes.
  out->append(StringPrintf("g %.17g\n", result.g));
  out->append("iterations ");
  AppendNumber(out, result.iterations);
  out->append(result.converged ? " 1\n" : " 0\n");
}

Result<ClusteringResult> ParseResultSection(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string word;
  std::string count_token;
  if (!(in >> word >> count_token) || word != "clusters") {
    return Status::InvalidArgument("malformed clusters header");
  }
  ClusteringResult result;
  NIDC_RETURN_NOT_OK(ParseResultBody(in, count_token, &result));
  if (in >> word) {
    return Status::InvalidArgument("trailing bytes after result section");
  }
  return result;
}

ClustererState CaptureState(const IncrementalClusterer& clusterer) {
  ClustererState state;
  state.params = clusterer.model().params();
  state.now = clusterer.model().now();
  state.active_docs = clusterer.model().active_docs();
  state.last_result = clusterer.last_result();
  state.step_count = clusterer.step_count();
  state.exact = clusterer.model().CaptureExact();
  return state;
}

std::string SerializeState(const ClustererState& state) {
  std::ostringstream out;
  out.precision(17);
  out << "nidc-state v2\n";
  out << "params " << state.params.half_life_days << ' '
      << state.params.life_span_days << '\n';
  out << "now " << state.now << '\n';
  out << "steps " << state.step_count << '\n';
  std::string sections;
  AppendIds(&sections, "active", state.active_docs);
  if (!state.last_result) {
    sections += "clusters none\n";
  } else {
    AppendResultSection(*state.last_result, &sections);
  }
  out << sections;
  if (state.exact) {
    const ExactModelState& exact = *state.exact;
    out << "exact\n";
    out << "now " << StringPrintf("%a", exact.now) << " tdw "
        << StringPrintf("%a", exact.tdw) << '\n';
    EmitExactPairs(out, "weights", exact.weights);
    out << "scale " << StringPrintf("%a", exact.term_scale) << '\n';
    EmitExactPairs(out, "terms", exact.term_sums);
  }
  return out.str();
}

Result<ClustererState> ParseState(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  std::string version;
  if (!(in >> word >> version) || word != "nidc-state" ||
      (version != "v1" && version != "v2")) {
    return Status::InvalidArgument("not a nidc-state v1/v2 snapshot");
  }
  ClustererState state;
  if (!(in >> word >> state.params.half_life_days >>
        state.params.life_span_days) ||
      word != "params" || !state.params.Validate().ok()) {
    return Status::InvalidArgument("malformed params line");
  }
  if (!(in >> word >> state.now) || word != "now") {
    return Status::InvalidArgument("malformed now line");
  }
  if (version == "v2") {
    if (!(in >> word >> state.step_count) || word != "steps") {
      return Status::InvalidArgument("malformed steps line");
    }
  }
  if (!ReadIds(in, "active", &state.active_docs)) {
    return Status::InvalidArgument("malformed active list");
  }
  std::string count_token;
  if (!(in >> word >> count_token) || word != "clusters") {
    return Status::InvalidArgument("malformed clusters header");
  }
  if (count_token != "none") {
    ClusteringResult result;
    NIDC_RETURN_NOT_OK(ParseResultBody(in, count_token, &result));
    state.last_result = std::move(result);
  }
  if (version == "v1") {
    // v1 predates the persisted step counter; mirror the legacy restore
    // heuristic so old snapshots resume with the seed stream they used to.
    state.step_count = state.last_result ? 1 : 0;
    return state;
  }
  if (in >> word) {
    if (word != "exact") {
      return Status::InvalidArgument("unexpected trailing section: " + word);
    }
    ExactModelState exact;
    NIDC_RETURN_NOT_OK(ParseExactSection(in, &exact));
    if (exact.weights.size() != state.active_docs.size()) {
      return Status::InvalidArgument(
          "exact weights disagree with the active list");
    }
    for (size_t i = 0; i < exact.weights.size(); ++i) {
      if (exact.weights[i].first != state.active_docs[i]) {
        return Status::InvalidArgument(
            "exact weights disagree with the active list");
      }
    }
    state.exact = std::move(exact);
  }
  return state;
}

Status SaveState(const ClustererState& state, const std::string& path,
                 Env* env) {
  if (env == nullptr) env = Env::Default();
  return AtomicWriteFile(env, path, SerializeState(state));
}

Result<ClustererState> LoadState(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  auto contents = env->ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  return ParseState(*contents);
}

Result<std::unique_ptr<IncrementalClusterer>> RestoreClusterer(
    const Corpus* corpus, IncrementalOptions options,
    const ClustererState& state) {
  NIDC_RETURN_NOT_OK(state.params.Validate());
  for (DocId id : state.active_docs) {
    if (id >= corpus->size()) {
      return Status::InvalidArgument(
          "snapshot references document " + std::to_string(id) +
          " beyond the corpus (wrong corpus for this snapshot?)");
    }
    if (id < corpus->first_retained()) {
      return Status::InvalidArgument("snapshot references document " +
                                     std::to_string(id) +
                                     ", which the corpus has released");
    }
    if (corpus->doc(id).time > state.now) {
      return Status::InvalidArgument(
          "snapshot clock precedes document " + std::to_string(id) +
          "'s acquisition time");
    }
  }
  auto clusterer = std::make_unique<IncrementalClusterer>(
      corpus, state.params, options);
  if (state.exact) {
    NIDC_RETURN_NOT_OK(clusterer->RestoreExact(
        *state.exact, state.last_result, state.step_count));
  } else {
    NIDC_RETURN_NOT_OK(clusterer->RestoreState(
        state.now, state.active_docs, state.last_result, state.step_count));
  }
  return clusterer;
}

}  // namespace nidc
