#ifndef TMERGE_REID_DISTANCE_KERNELS_H_
#define TMERGE_REID_DISTANCE_KERNELS_H_

#include <cstddef>

#include "tmerge/reid/feature.h"

namespace tmerge::reid::kernels {

/// Distance kernels underneath every selector inner loop. Two properties
/// matter more than raw FLOPs here (DESIGN.md §10 "Memory layout &
/// kernels"):
///
///   1. *Bit-compatibility.* Every fast kernel accumulates each output
///      element in exactly the same order as the scalar reference (one
///      running sum per output, elements in index order), so the fast and
///      scalar paths return identical bits and every selector produces
///      identical SelectionResults under either. The SSE2 variants only
///      exploit parallelism *across* independent outputs: two rows share a
///      2-lane vector op, and IEEE arithmetic is per-lane, so lane k is
///      row k's scalar chain bit for bit. No reduction is ever
///      reassociated, and this translation unit is compiled without FMA
///      contraction so mul+add cannot round differently from the scalar
///      reference.
///   2. *No per-call validation.* Dimension agreement is a debug-only
///      TMERGE_DCHECK; features coming out of a FeatureStore were
///      dimension-checked once at registration.
///
/// `SquaredDistance` is the primitive; `Distance` adds the sqrt. Callers
/// that only compare one distance against another (threshold gates,
/// arg-min scans, max-reductions) can stay on the squared fast path —
/// sqrt is monotone, so single-comparison ranking is preserved — and pay
/// one sqrt at the end if the metric value itself is needed. Scores that
/// *average* distances (BL/PS/LCB track-pair means, TMerge's Bernoulli
/// parameter) must take the sqrt per element: the mean of squares ranks
/// differently from the mean of roots.

/// True when the entry points below route to the scalar reference loops
/// instead of the unrolled/SSE2 paths. Off by default. The toggle exists
/// so differential tests and bench_micro can run every selector on the
/// reference and compare bits; outputs are identical either way. Reads
/// and writes are relaxed atomic operations, one predictable branch per
/// kernel call.
bool UseScalarKernels();
void SetUseScalarKernels(bool scalar);

/// Reference implementation: straight-line loop, one accumulator, index
/// order. Always available regardless of the toggle; differential tests
/// pin the fast paths against it.
double ScalarSquaredDistance(const double* a, const double* b,
                             std::size_t dim);

/// Squared Euclidean distance over contiguous storage. Bit-identical to
/// ScalarSquaredDistance by construction.
double SquaredDistance(const double* a, const double* b, std::size_t dim);

/// Euclidean distance: sqrt of SquaredDistance.
double Distance(const double* a, const double* b, std::size_t dim);

/// View overloads; debug-check that the dimensions agree.
double SquaredDistance(FeatureView a, FeatureView b);
double Distance(FeatureView a, FeatureView b);

/// Batched one-vs-many squared distances: out[i] = |query - many[i]|^2 for
/// i in [0, count). `many` is an array of `count` pointers, each to `dim`
/// contiguous doubles (gathered FeatureStore rows); `out` has room for
/// `count` results. Each element is computed exactly like
/// SquaredDistance(query, many[i], dim) — same bits on either path — but
/// the batched form amortizes call overhead and keeps the query row hot in
/// L1 across the sweep. This is the BL full-sweep and "-B" scoring kernel.
void OneVsManySquared(const double* query, const double* const* many,
                      std::size_t count, std::size_t dim, double* out);

/// Batched normalize epilogue for OneVsManySquared rows:
///   out[i] = clamp(sqrt(squared[i]) / scale, 0.0, 1.0)
/// for i in [0, count); in-place (out == squared) is allowed. Each element
/// matches ReidModel::NormalizedFromSquared bit for bit: sqrt and divide
/// are IEEE correctly-rounded in the scalar loop and in the SSE2 path
/// (sqrtpd/divpd round identically to sqrtsd/divsd), and the clamp is
/// min/max against the same constants. `scale` must be positive and
/// `squared[i]` non-negative (sums of squares), so no NaNs reach the
/// min/max. Selectors use this to finish a row without paying one scalar
/// sqrt+div round trip per element.
void NormalizedFromSquaredMany(const double* squared, std::size_t count,
                               double scale, double* out);

}  // namespace tmerge::reid::kernels

#endif  // TMERGE_REID_DISTANCE_KERNELS_H_
