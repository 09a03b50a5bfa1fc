#include "tmerge/reid/distance_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tmerge/core/status.h"

namespace tmerge::reid::kernels {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define TMERGE_RESTRICT __restrict__
#else
#define TMERGE_RESTRICT
#endif

/// The scalar toggle. Relaxed ordering suffices: both paths return the
/// same bits, so no other memory access needs to be ordered against it.
std::atomic<bool> g_use_scalar{false};

/// The unrolled kernel. Four differences per round trip keep the
/// subtract/multiply units busy; the single accumulator keeps the
/// reduction order identical to the scalar reference (bit-compatibility
/// contract in the header).
inline double UnrolledSquared(const double* TMERGE_RESTRICT a,
                              const double* TMERGE_RESTRICT b,
                              std::size_t dim) {
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    sum += d0 * d0;
    sum += d1 * d1;
    sum += d2 * d2;
    sum += d3 * d3;
  }
  for (; i < dim; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Four-row one-vs-many block. Each row keeps its own accumulator and
/// accumulates in exactly the scalar order, so every output is
/// bit-identical to ScalarSquaredDistance(query, row, dim). The win is
/// across rows, where no reduction order is at stake: four independent
/// chains hide the accumulator latency, and on SSE2 two rows ride one
/// 2-lane vector op (IEEE arithmetic is per-lane, so lane k is the
/// scalar chain of row k, bit for bit) — halving the sub/mul/add count
/// that makes the single-pair kernel throughput-bound.
#if defined(__SSE2__)
inline void FourRowsSquared(const double* TMERGE_RESTRICT q,
                            const double* TMERGE_RESTRICT b0,
                            const double* TMERGE_RESTRICT b1,
                            const double* TMERGE_RESTRICT b2,
                            const double* TMERGE_RESTRICT b3,
                            std::size_t dim, double* TMERGE_RESTRICT out) {
  __m128d s01 = _mm_setzero_pd();
  __m128d s23 = _mm_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const __m128d q_i = _mm_set1_pd(q[i]);
    // _mm_set_pd packs (hi, lo): lane 0 carries the even row.
    const __m128d b01 = _mm_set_pd(b1[i], b0[i]);
    const __m128d b23 = _mm_set_pd(b3[i], b2[i]);
    const __m128d d01 = _mm_sub_pd(q_i, b01);
    const __m128d d23 = _mm_sub_pd(q_i, b23);
    s01 = _mm_add_pd(s01, _mm_mul_pd(d01, d01));
    s23 = _mm_add_pd(s23, _mm_mul_pd(d23, d23));
  }
  _mm_storeu_pd(out, s01);
  _mm_storeu_pd(out + 2, s23);
}

/// Eight-row block: same per-lane contract as FourRowsSquared with the
/// query broadcast and loop control amortized over twice the rows.
inline void EightRowsSquared(const double* TMERGE_RESTRICT q,
                             const double* const* rows, std::size_t dim,
                             double* TMERGE_RESTRICT out) {
  const double* TMERGE_RESTRICT b0 = rows[0];
  const double* TMERGE_RESTRICT b1 = rows[1];
  const double* TMERGE_RESTRICT b2 = rows[2];
  const double* TMERGE_RESTRICT b3 = rows[3];
  const double* TMERGE_RESTRICT b4 = rows[4];
  const double* TMERGE_RESTRICT b5 = rows[5];
  const double* TMERGE_RESTRICT b6 = rows[6];
  const double* TMERGE_RESTRICT b7 = rows[7];
  __m128d s01 = _mm_setzero_pd();
  __m128d s23 = _mm_setzero_pd();
  __m128d s45 = _mm_setzero_pd();
  __m128d s67 = _mm_setzero_pd();
  for (std::size_t i = 0; i < dim; ++i) {
    const __m128d q_i = _mm_set1_pd(q[i]);
    const __m128d d01 = _mm_sub_pd(q_i, _mm_set_pd(b1[i], b0[i]));
    const __m128d d23 = _mm_sub_pd(q_i, _mm_set_pd(b3[i], b2[i]));
    const __m128d d45 = _mm_sub_pd(q_i, _mm_set_pd(b5[i], b4[i]));
    const __m128d d67 = _mm_sub_pd(q_i, _mm_set_pd(b7[i], b6[i]));
    s01 = _mm_add_pd(s01, _mm_mul_pd(d01, d01));
    s23 = _mm_add_pd(s23, _mm_mul_pd(d23, d23));
    s45 = _mm_add_pd(s45, _mm_mul_pd(d45, d45));
    s67 = _mm_add_pd(s67, _mm_mul_pd(d67, d67));
  }
  _mm_storeu_pd(out, s01);
  _mm_storeu_pd(out + 2, s23);
  _mm_storeu_pd(out + 4, s45);
  _mm_storeu_pd(out + 6, s67);
}
#else
inline void FourRowsSquared(const double* TMERGE_RESTRICT q,
                            const double* TMERGE_RESTRICT b0,
                            const double* TMERGE_RESTRICT b1,
                            const double* TMERGE_RESTRICT b2,
                            const double* TMERGE_RESTRICT b3,
                            std::size_t dim, double* TMERGE_RESTRICT out) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double q_i = q[i];
    const double d0 = q_i - b0[i];
    const double d1 = q_i - b1[i];
    const double d2 = q_i - b2[i];
    const double d3 = q_i - b3[i];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}
#endif

}  // namespace

bool UseScalarKernels() {
  return g_use_scalar.load(std::memory_order_relaxed);
}

void SetUseScalarKernels(bool scalar) {
  g_use_scalar.store(scalar, std::memory_order_relaxed);
}

double ScalarSquaredDistance(const double* a, const double* b,
                             std::size_t dim) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double SquaredDistance(const double* a, const double* b, std::size_t dim) {
  if (UseScalarKernels()) return ScalarSquaredDistance(a, b, dim);
  return UnrolledSquared(a, b, dim);
}

double Distance(const double* a, const double* b, std::size_t dim) {
  return std::sqrt(SquaredDistance(a, b, dim));
}

double SquaredDistance(FeatureView a, FeatureView b) {
  TMERGE_DCHECK(a.dim == b.dim);
  return SquaredDistance(a.data, b.data, a.dim);
}

double Distance(FeatureView a, FeatureView b) {
  TMERGE_DCHECK(a.dim == b.dim);
  return Distance(a.data, b.data, a.dim);
}

void OneVsManySquared(const double* query, const double* const* many,
                      std::size_t count, std::size_t dim, double* out) {
  std::size_t i = 0;
  if (UseScalarKernels()) {
    for (; i < count; ++i) {
      out[i] = ScalarSquaredDistance(query, many[i], dim);
    }
    return;
  }
#if defined(__SSE2__)
  for (; i + 8 <= count; i += 8) {
    EightRowsSquared(query, many + i, dim, out + i);
  }
#endif
  for (; i + 4 <= count; i += 4) {
    FourRowsSquared(query, many[i], many[i + 1], many[i + 2], many[i + 3],
                    dim, out + i);
  }
  for (; i < count; ++i) {
    out[i] = UnrolledSquared(query, many[i], dim);
  }
}

void NormalizedFromSquaredMany(const double* squared, std::size_t count,
                               double scale, double* out) {
  std::size_t i = 0;
#if defined(__SSE2__)
  if (!UseScalarKernels()) {
    // sqrtpd and divpd are IEEE correctly-rounded, exactly like their
    // scalar forms, so the vector lanes reproduce the scalar epilogue bit
    // for bit while retiring two sqrt+div chains per instruction pair.
    const __m128d scale2 = _mm_set1_pd(scale);
    const __m128d zero2 = _mm_setzero_pd();
    const __m128d one2 = _mm_set1_pd(1.0);
    for (; i + 2 <= count; i += 2) {
      const __m128d d =
          _mm_div_pd(_mm_sqrt_pd(_mm_loadu_pd(squared + i)), scale2);
      _mm_storeu_pd(out + i, _mm_min_pd(_mm_max_pd(d, zero2), one2));
    }
  }
#endif
  for (; i < count; ++i) {
    const double d = std::sqrt(squared[i]) / scale;
    out[i] = std::clamp(d, 0.0, 1.0);
  }
}

}  // namespace tmerge::reid::kernels
