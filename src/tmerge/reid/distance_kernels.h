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
///      identical SelectionResults under either. The AVX2 sweep only
///      exploits parallelism *across* independent outputs: four columns
///      share a 4-lane vector op, and IEEE arithmetic is per-lane, so lane
///      k is column k's scalar chain bit for bit. No reduction is ever
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
/// instead of the unrolled/AVX2 paths. Off by default. The toggle exists
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

/// True when this CPU runs the AVX2 column sweep behind
/// SumNormalizedDistances. Probed once per process (CPUID); false off
/// x86-64. The scalar toggle overrides it without changing it.
bool Avx2SweepAvailable();

/// Transposes `count` feature rows of `dim` doubles each (gathered
/// FeatureStore rows) into column-major scratch: element i of row j lands
/// at columns[i * count + j], so one feature element of consecutive rows
/// is contiguous. `columns` has room for count * dim doubles.
void GatherColumns(const double* const* rows, std::size_t count,
                   std::size_t dim, double* columns);

/// The BL track-pair sweep for one query row against `count` columns laid
/// out by GatherColumns: returns `sum` plus, added one at a time in column
/// order, clamp(sqrt(|query - column j|^2) / scale, 0, 1) for j in
/// [0, count). Each term is ReidModel::NormalizedDistance(query, column j)
/// bit for bit (the squared distance accumulates in index order; sqrt and
/// divide are correctly rounded on both paths; the clamp keeps
/// std::clamp's operand order), so a caller that carries `sum` across
/// query rows reproduces the pairwise fa-outer / fb-inner sum exactly.
/// `scale` must be positive.
double SumNormalizedDistances(const double* query, const double* columns,
                              std::size_t count, std::size_t dim,
                              double scale, double sum);

}  // namespace tmerge::reid::kernels

#endif  // TMERGE_REID_DISTANCE_KERNELS_H_
