// AVX-512 scoring kernel. Compiled with -mavx512f and reached only
// through the runtime dispatch table (kernels.cc); everything here stays
// inside the AVX512F foundation set (no BW/VL/DQ dependencies).
//
// Exact fp64 kernel: 8 postings per iteration, masked vgatherdpd /
// vscatterdpd against the fp64 score table. Within one term the posting
// cluster ids are distinct, so gather-add-scatter inside a chunk never
// collides, and each score accumulator still sees its additions in the
// same term order as the scalar kernel — products are separate mul + add
// (no FMA contraction), so the result is bit-identical.

#include "nidc/core/kernels/kernels.h"

#if defined(NIDC_HAVE_KERNEL_AVX512)

#include <immintrin.h>

namespace nidc::kernels {

namespace {

inline void PrefetchTermExact(const PostingsView& view, const DocRow& row,
                              size_t i) {
  if (i + 2 < row.size) {
    const size_t off = view.begins[row.terms[i + 2]];
    _mm_prefetch(reinterpret_cast<const char*>(view.clusters + off),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(view.weights + off),
                 _MM_HINT_T0);
  }
}

}  // namespace

uint64_t ScoreAvx512(const PostingsView& view, const DocRow& row,
                     uint32_t home, double* scores, double* home_attached) {
  const size_t k = view.num_clusters;
  for (size_t p = 0; p < k; ++p) scores[p] = 0.0;
  double attached = 0.0;
  uint64_t entries = 0;
  const __m512i home64 =
      _mm512_set1_epi64(static_cast<long long>(static_cast<uint64_t>(home)));
  for (size_t i = 0; i < row.size; ++i) {
    PrefetchTermExact(view, row, i);
    const uint32_t t = row.terms[i];
    const double v = row.values[i];
    const size_t begin = view.begins[t];
    const size_t end = view.ends[t];
    entries += end - begin;
    const __m512d vv = _mm512_set1_pd(v);
    for (size_t e = begin; e < end; e += 8) {
      const size_t rem = end - e < 8 ? end - e : 8;
      const __mmask8 m = static_cast<__mmask8>(0xffu >> (8 - rem));
      const __m256i ids = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(view.clusters + e));
      const __m512d w = _mm512_loadu_pd(view.weights + e);
      __m512d prod = _mm512_mul_pd(w, vv);
      if (home != kNoHome) {
        // The zero-masked widening gives every lane a defined source; the
        // unmasked form starts from an undefined register, which gcc 12
        // reports as maybe-uninitialized.
        const __m512i ids64 = _mm512_maskz_cvtepu32_epi64(m, ids);
        const __mmask8 kh = _mm512_mask_cmpeq_epi64_mask(m, ids64, home64);
        if (kh != 0) {
          // Detached home lane: same sub-then-mul expression as the scalar
          // kernel, and the attached cross term recomputed in scalar fp64.
          const __m512d prod_home =
              _mm512_mul_pd(_mm512_sub_pd(w, vv), vv);
          prod = _mm512_mask_mov_pd(prod, kh, prod_home);
          const size_t he = e + static_cast<size_t>(__builtin_ctz(kh));
          attached += view.weights[he] * v;
        }
      }
      // Distinct ids within a term: no lane collisions inside the chunk.
      const __m512d old = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m,
                                                   ids, scores, 8);
      _mm512_mask_i32scatter_pd(scores, m, ids, _mm512_add_pd(old, prod), 8);
    }
  }
  *home_attached = attached;
  return entries;
}

}  // namespace nidc::kernels

#endif  // NIDC_HAVE_KERNEL_AVX512
