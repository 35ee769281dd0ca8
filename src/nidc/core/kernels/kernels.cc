#include "nidc/core/kernels/kernels.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "nidc/util/cpuid.h"
#include "nidc/util/logging.h"

namespace nidc::kernels {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the historical FlatRepIndex loops
// moved verbatim: every SIMD kernel is verified against the decisions this
// code produces.
// ---------------------------------------------------------------------------

namespace {

uint64_t ScoreScalar(const PostingsView& view, const DocRow& row,
                     uint32_t home, double* scores, double* home_attached) {
  const size_t k = view.num_clusters;
  for (size_t p = 0; p < k; ++p) scores[p] = 0.0;
  double attached = 0.0;
  uint64_t entries = 0;
  for (size_t i = 0; i < row.size; ++i) {
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.begins[t];
    const size_t end = view.ends[t];
    entries += end - begin;
    for (size_t e = begin; e < end; ++e) {
      const uint32_t c = view.clusters[e];
      const double w = view.weights[e];
      if (c == home) {
        // Detached home score: the posting weight a physical remove would
        // leave is fl(w − v); multiplying by v afterwards replays the
        // removed-then-rescored arithmetic exactly.
        attached += w * v;
        scores[c] += (w - v) * v;
      } else {
        scores[c] += w * v;
      }
    }
  }
  *home_attached = attached;
  return entries;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

// Defined in kernels_avx512.cc when the toolchain can target the ISA;
// weak-less portable alternative: the build defines NIDC_HAVE_KERNEL_AVX512
// and we declare conditionally.
#if defined(NIDC_HAVE_KERNEL_AVX512)
uint64_t ScoreAvx512(const PostingsView&, const DocRow&, uint32_t, double*,
                     double*);
#endif

namespace {

constexpr ScoreKernel kScalarKernel = {"scalar", Kind::kScalar, ScoreScalar};
#if defined(NIDC_HAVE_KERNEL_AVX512)
constexpr ScoreKernel kAvx512Kernel = {"avx512", Kind::kAvx512,
                                       ScoreAvx512};
#endif

const ScoreKernel* KernelFor(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return &kScalarKernel;
    case Kind::kAvx512:
#if defined(NIDC_HAVE_KERNEL_AVX512)
      return &kAvx512Kernel;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const ScoreKernel* g_active = nullptr;
std::once_flag g_init_once;

Kind BestAvailable() {
  if (Available(Kind::kAvx512)) return Kind::kAvx512;
  return Kind::kScalar;
}

void InitFromEnv() {
  const char* env = std::getenv("NIDC_KERNEL");
  Kind kind = BestAvailable();
  if (env != nullptr && env[0] != '\0') {
    Kind requested;
    NIDC_CHECK(ParseKind(env, &requested))
        << "NIDC_KERNEL='" << env << "' is not scalar|avx512";
    NIDC_CHECK(Available(requested))
        << "NIDC_KERNEL=" << env << " requested but the CPU (or this "
        << "build) does not support it";
    kind = requested;
  }
  g_active = KernelFor(kind);
}

}  // namespace

bool Available(Kind kind) {
  if (KernelFor(kind) == nullptr) return false;
  switch (kind) {
    case Kind::kScalar:
      return true;
    case Kind::kAvx512:
      return CpuSupportsAvx512();
  }
  return false;
}

const ScoreKernel& Active() {
  std::call_once(g_init_once, InitFromEnv);
  return *g_active;
}

void Select(Kind kind) {
  std::call_once(g_init_once, InitFromEnv);
  NIDC_CHECK(Available(kind))
      << "kernel '" << KindName(kind) << "' is not available on this CPU";
  g_active = KernelFor(kind);
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseKind(const char* name, Kind* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = Kind::kScalar;
  } else if (std::strcmp(name, "avx512") == 0) {
    *out = Kind::kAvx512;
  } else {
    return false;
  }
  return true;
}

}  // namespace nidc::kernels
