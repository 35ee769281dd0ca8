// AVX2 scoring kernel. Compiled with -mavx2 and reached only through the
// runtime dispatch table (kernels.cc), so the binary stays safe on CPUs
// without this ISA.
//
// Strategy: the per-term products are computed 4 fp64 lanes at a time;
// the score accumulation itself stays scalar (AVX2 has gathers but no
// scatters, and K is small enough that the store-to-buffer +
// scalar-accumulate loop wins over a gather/blend dance). Home-cluster
// entries take the exact scalar arithmetic — identical expressions to the
// scalar kernel — so detached home scores are bit-for-bit reproducible.

#include "nidc/core/kernels/kernels.h"

#if defined(NIDC_HAVE_KERNEL_AVX2)

#include <immintrin.h>

namespace nidc::kernels {

namespace {

// Prefetches the posting arrays of the term two positions ahead of the
// scan cursor — far enough to cover an L2 miss, near enough to stay in
// the row's reuse window.
inline void PrefetchTerm(const PostingsView& view, const DocRow& row,
                         size_t i) {
  if (i + 2 < row.size) {
    const size_t off = view.offsets[row.terms[i + 2]];
    _mm_prefetch(reinterpret_cast<const char*>(view.clusters + off),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(view.weights + off),
                 _MM_HINT_T0);
  }
}

}  // namespace

uint64_t ScoreAvx2(const PostingsView& view, const DocRow& row, uint32_t home,
                   double* scores, double* home_attached) {
  const size_t k = view.num_clusters;
  for (size_t p = 0; p < k; ++p) scores[p] = 0.0;
  double attached = 0.0;
  uint64_t entries = 0;
  alignas(32) double prod_buf[4];
  alignas(16) uint32_t id_buf[4];
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTerm(view, row, i);
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.offsets[t];
    const size_t end = view.offsets[t + 1];
    entries += end - begin;
    const __m256d vv = _mm256_set1_pd(v);
    for (size_t e = begin; e < end; e += 4) {
      // Padded SoA arrays make the full-width loads safe on the tail.
      const __m128i ids = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(view.clusters + e));
      const __m256d w = _mm256_loadu_pd(view.weights + e);
      _mm256_store_pd(prod_buf, _mm256_mul_pd(w, vv));
      _mm_store_si128(reinterpret_cast<__m128i*>(id_buf), ids);
      const size_t rem = end - e < 4 ? end - e : 4;
      for (size_t j = 0; j < rem; ++j) {
        const uint32_t c = id_buf[j];
        if (c == home) {
          // Same scalar expressions as the reference kernel, so the
          // detached home score replays the removed-then-rescored
          // arithmetic exactly.
          const double hw = view.weights[e + j];
          attached += hw * v;
          scores[c] += (hw - v) * v;
        } else {
          scores[c] += prod_buf[j];
        }
      }
    }
  }
  *home_attached = attached;
  return entries;
}

}  // namespace nidc::kernels

#endif  // NIDC_HAVE_KERNEL_AVX2
