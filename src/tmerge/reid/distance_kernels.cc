#include "tmerge/reid/distance_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

// The one fast sweep is AVX2, compiled per function with a target
// attribute and chosen at run time by CPUID, so the library itself still
// targets the x86-64 baseline.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TMERGE_AVX2_SWEEP 1
#include <immintrin.h>
#else
#define TMERGE_AVX2_SWEEP 0
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

/// The single-pair dispatch. The entry points call this rather than each
/// other, so each inlines the whole kernel: PS, LCB, TMerge and the gate
/// pay one call per box pair, not a chain of them.
inline double SinglePairSquared(const double* a, const double* b,
                                std::size_t dim) {
  if (UseScalarKernels()) return ScalarSquaredDistance(a, b, dim);
  return UnrolledSquared(a, b, dim);
}

#if TMERGE_AVX2_SWEEP
/// Turns four squared distances into ReidModel::NormalizedDistance terms
/// and adds them to `sum` in column order. vsqrtpd and vdivpd round like
/// their scalar forms. vmaxpd and vminpd return their second operand on a
/// tie or a NaN, so with the constants first the clamp is std::clamp bit
/// for bit, signed zeros and NaNs included.
__attribute__((target("avx2"))) inline double AddNormalized4(
    __m256d squared, __m256d scale, double sum) {
  const __m256d d = _mm256_div_pd(_mm256_sqrt_pd(squared), scale);
  alignas(32) double terms[4];
  _mm256_store_pd(terms, _mm256_min_pd(_mm256_set1_pd(1.0),
                                       _mm256_max_pd(_mm256_setzero_pd(), d)));
  for (double term : terms) sum += term;
  return sum;
}

/// The AVX2 sweep over columns [0, end), `end` a multiple of 4. Lane k of
/// each accumulator is column k's scalar chain, fed by one contiguous load
/// per feature element. 16-column blocks keep four accumulators in flight
/// to hide the add latency; the rest take 4-column steps.
__attribute__((target("avx2"))) double Avx2SumNormalized(
    const double* TMERGE_RESTRICT query,
    const double* TMERGE_RESTRICT columns, std::size_t count,
    std::size_t end, std::size_t dim, double scale, double sum) {
  const __m256d scale4 = _mm256_set1_pd(scale);
  std::size_t j = 0;
  for (; j + 16 <= end; j += 16) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    const double* column = columns + j;
    for (std::size_t i = 0; i < dim; ++i, column += count) {
      const __m256d q = _mm256_broadcast_sd(query + i);
      const __m256d d0 = _mm256_sub_pd(q, _mm256_loadu_pd(column));
      const __m256d d1 = _mm256_sub_pd(q, _mm256_loadu_pd(column + 4));
      const __m256d d2 = _mm256_sub_pd(q, _mm256_loadu_pd(column + 8));
      const __m256d d3 = _mm256_sub_pd(q, _mm256_loadu_pd(column + 12));
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(d0, d0));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(d1, d1));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(d2, d2));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(d3, d3));
    }
    sum = AddNormalized4(s0, scale4, sum);
    sum = AddNormalized4(s1, scale4, sum);
    sum = AddNormalized4(s2, scale4, sum);
    sum = AddNormalized4(s3, scale4, sum);
  }
  for (; j < end; j += 4) {
    __m256d s = _mm256_setzero_pd();
    const double* column = columns + j;
    for (std::size_t i = 0; i < dim; ++i, column += count) {
      const __m256d d = _mm256_sub_pd(_mm256_broadcast_sd(query + i),
                                      _mm256_loadu_pd(column));
      s = _mm256_add_pd(s, _mm256_mul_pd(d, d));
    }
    sum = AddNormalized4(s, scale4, sum);
  }
  return sum;
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
  return SinglePairSquared(a, b, dim);
}

double Distance(const double* a, const double* b, std::size_t dim) {
  return std::sqrt(SinglePairSquared(a, b, dim));
}

double SquaredDistance(FeatureView a, FeatureView b) {
  TMERGE_DCHECK(a.dim == b.dim);
  return SinglePairSquared(a.data, b.data, a.dim);
}

double Distance(FeatureView a, FeatureView b) {
  TMERGE_DCHECK(a.dim == b.dim);
  return std::sqrt(SinglePairSquared(a.data, b.data, a.dim));
}

bool Avx2SweepAvailable() {
#if TMERGE_AVX2_SWEEP
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

void GatherColumns(const double* const* rows, std::size_t count,
                   std::size_t dim, double* columns) {
  for (std::size_t j = 0; j < count; ++j) {
    const double* row = rows[j];
    for (std::size_t i = 0; i < dim; ++i) {
      columns[i * count + j] = row[i];
    }
  }
}

double SumNormalizedDistances(const double* query, const double* columns,
                              std::size_t count, std::size_t dim,
                              double scale, double sum) {
  std::size_t j = 0;
#if TMERGE_AVX2_SWEEP
  if (!UseScalarKernels() && Avx2SweepAvailable()) {
    j = count - count % 4;
    sum = Avx2SumNormalized(query, columns, count, j, dim, scale, sum);
  }
#endif
  // The scalar reference, and the AVX2 sweep's tail of 0-3 columns.
  for (; j < count; ++j) {
    double squared = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = query[i] - columns[i * count + j];
      squared += d * d;
    }
    sum += std::clamp(std::sqrt(squared) / scale, 0.0, 1.0);
  }
  return sum;
}

}  // namespace tmerge::reid::kernels
