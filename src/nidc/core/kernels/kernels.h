// Vectorized scoring kernels for the slotted (CSR) sweep hot path.
//
// The extended K-means inner loop is a document-at-a-time posting scan:
// for every term of a document's ψ row, walk that term's (cluster, weight)
// posting list and accumulate scores[cluster] += weight · value — plus,
// for the document's home cluster, the detached variant
// (weight − value) · value and the attached cross term weight · value
// (see FlatRepIndex::ScoreAllDetached). This file isolates exactly that
// loop behind a runtime-dispatched function-pointer table with two
// implementations:
//
//   scalar   portable reference — bit-for-bit the historical loop
//   avx512   512-bit masked lanes, gather/scatter into the score table
//
// The active kernel is chosen at startup from CPUID (best available) and
// can be overridden with NIDC_KERNEL=scalar|avx512 for testing, or
// programmatically via Select(). Every kernel produces *bit-identical*
// exact scores: within one term the posting clusters are distinct, so
// reordering the per-term lane arithmetic never reorders any single
// accumulator's addition sequence, and products are kept as separate
// mul + add (never FMA-contracted).

#ifndef NIDC_CORE_KERNELS_KERNELS_H_
#define NIDC_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace nidc::kernels {

/// Kernel implementations, in increasing ISA order.
enum class Kind { kScalar = 0, kAvx512 = 1 };

/// Loads beyond a posting list's logical end must stay in-bounds: the
/// SIMD kernels read full vectors and mask in-register, so the SoA arrays
/// they scan carry this many zeroed slots of padding after the last entry.
inline constexpr size_t kPostingPadding = 16;

/// Read-only SoA view of a flat CSR posting index (see FlatRepIndex).
/// Term t's entries are the run [begins[t], ends[t]), and they name
/// distinct clusters, in any order. Runs may sit anywhere in the arrays,
/// in any term order, with unreferenced slots between them; the clusters /
/// weights arrays carry at least kPostingPadding slots past every run's
/// end.
struct PostingsView {
  const size_t* begins = nullptr;      // num_terms entries
  const size_t* ends = nullptr;        // num_terms entries
  const uint32_t* clusters = nullptr;  // entry cluster ids
  const double* weights = nullptr;     // exact fp64 weights
  size_t num_terms = 0;
  size_t num_clusters = 0;
};

/// One document's ψ as local-term/value arrays (SimilarityContext::Row).
struct DocRow {
  const uint32_t* terms = nullptr;
  const double* values = nullptr;
  size_t size = 0;
};

/// `home` value meaning "score every cluster attached" (document has no
/// home cluster). Never collides with a real cluster id.
inline constexpr uint32_t kNoHome = UINT32_MAX;

/// Exact fp64 document-at-a-time scan. `scores` (size num_clusters) is
/// zeroed by the kernel, then accumulates scores[c] += w·v in term-major
/// order; entries of cluster `home` instead accumulate (w−v)·v into
/// scores[home] and w·v into *home_attached (zeroed by the kernel) — the
/// detachment identity of the move-only sweep. Returns posting entries
/// touched (for bytes accounting).
using ScoreFn = uint64_t (*)(const PostingsView& view, const DocRow& row,
                             uint32_t home, double* scores,
                             double* home_attached);

/// One dispatch-table row.
struct ScoreKernel {
  const char* name = "scalar";
  Kind kind = Kind::kScalar;
  ScoreFn score = nullptr;
};

/// The active kernel. First call resolves NIDC_KERNEL (scalar|avx512;
/// fatal when the requested ISA is not supported by the running CPU), or
/// picks the best supported implementation when the variable is unset.
const ScoreKernel& Active();

/// True when `kind` can run on this CPU (scalar always can). A kernel
/// compiled out of the binary (toolchain without the ISA) is unavailable.
bool Available(Kind kind);

/// Overrides the active kernel (test hook; fatal if unavailable).
void Select(Kind kind);

const char* KindName(Kind kind);

/// Parses "scalar" / "avx512"; returns false on anything else.
bool ParseKind(const char* name, Kind* out);

}  // namespace nidc::kernels

#endif  // NIDC_CORE_KERNELS_KERNELS_H_
