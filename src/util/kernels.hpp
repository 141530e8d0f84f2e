// Vectorized inner loops for the VA-side aggregation hot path.
//
// Every kernel here is a drop-in replacement for a scalar loop somewhere in
// the metrics / core layers, with one hard contract: **bit-identical
// output**. Floating-point addition is not associative, so kernels that
// accumulate (span sums, group reductions) keep the exact accumulation
// order of the scalar code they replace and win through pointer hoisting,
// `restrict`, and bounds-check elimination instead of lane reordering.
// Kernels whose lanes are independent (the prefix-slab build, filter
// predicate masks, min/max zone maps) additionally carry explicit SSE2
// paths — SSE2 is baseline on x86-64, and per-lane results are unaffected
// by evaluation order, so the SIMD and scalar paths agree bit for bit.
// tests/test_dvr.cpp pins each kernel against its naive scalar twin.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define DV_KERNELS_SSE2 1
#else
#define DV_KERNELS_SSE2 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define DV_RESTRICT __restrict__
#else
#define DV_RESTRICT
#endif

namespace dv::kernels {

/// One frame of the prefix-slab build: next[i] = prev[i] + frame[i] with
/// the float widened to double first — exactly the arithmetic of
/// PrefixSeries' scalar loop. Lanes are independent, so the SSE2 path
/// (two doubles per step, cvtps->pd widening) is bit-identical.
inline void prefix_add_frame(const float* DV_RESTRICT frame,
                             const double* DV_RESTRICT prev,
                             double* DV_RESTRICT next, std::size_t n) {
  std::size_t i = 0;
#if DV_KERNELS_SSE2
  for (; i + 4 <= n; i += 4) {
    const __m128 f = _mm_loadu_ps(frame + i);
    const __m128d flo = _mm_cvtps_pd(f);
    const __m128d fhi = _mm_cvtps_pd(_mm_movehl_ps(f, f));
    _mm_storeu_pd(next + i, _mm_add_pd(_mm_loadu_pd(prev + i), flo));
    _mm_storeu_pd(next + i + 2,
                  _mm_add_pd(_mm_loadu_pd(prev + i + 2), fhi));
  }
#endif
  for (; i < n; ++i) next[i] = prev[i] + static_cast<double>(frame[i]);
}

/// Contiguous sum, preserving left-to-right accumulation order.
inline double sum_span(const float* DV_RESTRICT p, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(p[i]);
  return acc;
}

/// ANDs `keep[i] &= !(col[i] < lo || col[i] > hi)` over the span — the
/// aggregation filter pass, one column at a time. The predicate is kept in
/// the scalar filter's *negated* form (reject below/above) rather than the
/// equivalent-looking `lo <= v && v <= hi` so a NaN cell behaves exactly as
/// the original row loop: both ordered compares are false, the row is kept.
/// Pure per-lane work, so the SSE2 path is trivially bit-identical.
inline void filter_range_mask(const double* DV_RESTRICT col, std::size_t n,
                              double lo, double hi,
                              unsigned char* DV_RESTRICT keep) {
  std::size_t i = 0;
#if DV_KERNELS_SSE2
  const __m128d vlo = _mm_set1_pd(lo);
  const __m128d vhi = _mm_set1_pd(hi);
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(col + i);
    const __m128d bad =
        _mm_or_pd(_mm_cmplt_pd(v, vlo), _mm_cmpgt_pd(v, vhi));
    const int mask = _mm_movemask_pd(bad);
    keep[i] &= static_cast<unsigned char>(~mask & 1);
    keep[i + 1] &= static_cast<unsigned char>((~mask >> 1) & 1);
  }
#endif
  for (; i < n; ++i) {
    keep[i] &= static_cast<unsigned char>(!(col[i] < lo || col[i] > hi));
  }
}

/// Min/max over a span (the zone-map builder). min/max are commutative and
/// associative (no NaNs in metric columns), so lane order is free.
inline void minmax_f32(const float* DV_RESTRICT p, std::size_t n,
                       float& out_min, float& out_max) {
  float lo = n ? p[0] : 0.0f;
  float hi = lo;
  std::size_t i = 0;
#if DV_KERNELS_SSE2
  if (n >= 4) {
    __m128 vlo = _mm_loadu_ps(p);
    __m128 vhi = vlo;
    for (i = 4; i + 4 <= n; i += 4) {
      const __m128 v = _mm_loadu_ps(p + i);
      vlo = _mm_min_ps(vlo, v);
      vhi = _mm_max_ps(vhi, v);
    }
    alignas(16) float tmp[4];
    _mm_store_ps(tmp, vlo);
    lo = tmp[0];
    for (int k = 1; k < 4; ++k) lo = tmp[k] < lo ? tmp[k] : lo;
    _mm_store_ps(tmp, vhi);
    hi = tmp[0];
    for (int k = 1; k < 4; ++k) hi = tmp[k] > hi ? tmp[k] : hi;
  }
#endif
  for (; i < n; ++i) {
    lo = p[i] < lo ? p[i] : lo;
    hi = p[i] > hi ? p[i] : hi;
  }
  out_min = lo;
  out_max = hi;
}

inline void minmax_f64(const double* DV_RESTRICT p, std::size_t n,
                       double& out_min, double& out_max) {
  double lo = n ? p[0] : 0.0;
  double hi = lo;
  std::size_t i = 0;
#if DV_KERNELS_SSE2
  if (n >= 2) {
    __m128d vlo = _mm_loadu_pd(p);
    __m128d vhi = vlo;
    for (i = 2; i + 2 <= n; i += 2) {
      const __m128d v = _mm_loadu_pd(p + i);
      vlo = _mm_min_pd(vlo, v);
      vhi = _mm_max_pd(vhi, v);
    }
    alignas(16) double tmp[2];
    _mm_store_pd(tmp, vlo);
    lo = tmp[0] < tmp[1] ? tmp[0] : tmp[1];
    _mm_store_pd(tmp, vhi);
    hi = tmp[0] > tmp[1] ? tmp[0] : tmp[1];
  }
#endif
  for (; i < n; ++i) {
    lo = p[i] < lo ? p[i] : lo;
    hi = p[i] > hi ? p[i] : hi;
  }
  out_min = lo;
  out_max = hi;
}

/// Gathered sum col[rows[i]] for i in [0, n) — the group-by kSum inner
/// loop. Sequential accumulation order is the bit-identity contract, so no
/// lane reordering; `restrict` + a hoisted base pointer let the compiler
/// keep the accumulator in a register and software-pipeline the gathers.
inline double gather_sum(const double* DV_RESTRICT col,
                         const std::uint32_t* DV_RESTRICT rows,
                         std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += col[rows[i]];
  return acc;
}

}  // namespace dv::kernels
