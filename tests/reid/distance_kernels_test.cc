#include "tmerge/reid/distance_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "testing/test_util.h"
#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"
#include "tmerge/reid/feature.h"

namespace tmerge::reid::kernels {
namespace {

/// ULP distance between two non-negative finite doubles (bit-pattern
/// difference; for same-sign finite values consecutive representable
/// doubles differ by exactly 1).
std::int64_t UlpDiff(double a, double b) {
  std::int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia >= ib ? ia - ib : ib - ia;
}

std::vector<double> RandomFeature(core::Rng& rng, std::size_t dim) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  return v;
}

TEST(DistanceKernelsTest, KnownEuclideanValues) {
  const double a[] = {0.0, 3.0};
  const double b[] = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(ScalarSquaredDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b, 2), 5.0);
}

// The bit-compatibility contract from the header: the unrolled kernel
// accumulates in the same order as the scalar reference, so outputs are
// identical to the last bit — not merely close. Odd dims exercise the
// remainder loop.
TEST(DistanceKernelsTest, UnrolledBitIdenticalToScalar) {
  testing::ScopedKernelMode restore;
  core::Rng rng(2024);
  for (std::size_t dim = 1; dim <= 67; ++dim) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    SetUseScalarKernels(false);
    double unrolled = SquaredDistance(a.data(), b.data(), dim);
    double scalar = ScalarSquaredDistance(a.data(), b.data(), dim);
    EXPECT_EQ(UlpDiff(unrolled, scalar), 0) << "dim=" << dim;
    SetUseScalarKernels(true);
    EXPECT_EQ(UlpDiff(SquaredDistance(a.data(), b.data(), dim), scalar), 0)
        << "dim=" << dim;
  }
}

TEST(DistanceKernelsTest, DistanceIsSqrtOfSquared) {
  core::Rng rng(7);
  for (std::size_t dim : {1u, 4u, 16u, 33u}) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    EXPECT_EQ(UlpDiff(Distance(a.data(), b.data(), dim),
                      std::sqrt(SquaredDistance(a.data(), b.data(), dim))),
              0);
  }
}

// The fused BL sweep returns the scalar toggle's bytes, and both equal the
// per-column composition of ScalarSquaredDistance with
// ReidModel::NormalizedDistance's sqrt, divide and clamp, added in column
// order onto a nonzero carried-in sum. Dims cross the unrolled loop's
// remainder; counts reach the 16-column block, the 4-column step and the
// scalar tail alone and together. Every fifth column sits far enough from
// the query to clamp at 1.
TEST(DistanceKernelsTest, SumNormalizedDistancesMatchesScalarReference) {
  testing::ScopedKernelMode restore;
  core::Rng rng(99);
  constexpr double kCarried = 0.375;
  int clamped = 0, unclamped = 0;
  for (std::size_t dim : {1u, 3u, 8u, 16u, 17u, 33u, 64u}) {
    const double scale = std::sqrt(2.0 * static_cast<double>(dim));
    for (std::size_t count : {1u, 3u, 4u, 5u, 15u, 16u, 17u, 20u, 33u, 37u}) {
      std::vector<double> query = RandomFeature(rng, dim);
      std::vector<std::vector<double>> features;
      std::vector<const double*> rows;
      for (std::size_t j = 0; j < count; ++j) {
        features.push_back(RandomFeature(rng, dim));
        if (j % 5 == 2) features.back()[0] = query[0] + 2.0 * scale;
        rows.push_back(features.back().data());
      }
      std::vector<double> columns(count * dim);
      GatherColumns(rows.data(), count, dim, columns.data());
      for (std::size_t j = 0; j < count; ++j) {
        for (std::size_t i = 0; i < dim; ++i) {
          ASSERT_EQ(columns[i * count + j], features[j][i])
              << "dim=" << dim << " count=" << count << " j=" << j
              << " i=" << i;
        }
      }

      double expected = kCarried;
      for (const double* row : rows) {
        const double d =
            std::sqrt(ScalarSquaredDistance(query.data(), row, dim)) / scale;
        (d >= 1.0 ? clamped : unclamped) += 1;
        expected += std::clamp(d, 0.0, 1.0);
      }
      SetUseScalarKernels(false);
      const double fast = SumNormalizedDistances(
          query.data(), columns.data(), count, dim, scale, kCarried);
      SetUseScalarKernels(true);
      const double scalar = SumNormalizedDistances(
          query.data(), columns.data(), count, dim, scale, kCarried);
      EXPECT_EQ(std::memcmp(&fast, &scalar, sizeof(double)), 0)
          << "dim=" << dim << " count=" << count;
      EXPECT_EQ(std::memcmp(&scalar, &expected, sizeof(double)), 0)
          << "dim=" << dim << " count=" << count;
    }
  }
  EXPECT_GT(clamped, 0);
  EXPECT_GT(unclamped, 0);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// A dispatch that silently fell back to the scalar loop would pass every
// bit-identity test and lose the whole speedup, so the CPUID decision is
// pinned against the compiler's own probe, made here independently.
TEST(DistanceKernelsTest, Avx2SweepSelectedExactlyWhenTheCpuHasIt) {
  __builtin_cpu_init();
  EXPECT_EQ(Avx2SweepAvailable(), __builtin_cpu_supports("avx2") != 0);
}
#endif

// Both kernels must stay within a couple ULP of an extended-precision
// reference — guards against an accidental rewrite into a numerically
// sloppy form (the bitwise test above alone would not catch the two paths
// drifting together).
TEST(DistanceKernelsTest, WithinTwoUlpOfLongDoubleReference) {
  core::Rng rng(5);
  for (std::size_t dim : {3u, 16u, 64u, 129u}) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    long double reference = 0.0L;
    for (std::size_t i = 0; i < dim; ++i) {
      long double d = static_cast<long double>(a[i]) - b[i];
      reference += d * d;
    }
    double expected = static_cast<double>(reference);
    // Sequential-summation rounding grows with the term count, so the
    // tolerance scales with dim; at the shipped feature dim (16) the bound
    // is the tight 2 ULP.
    const auto ulp_bound =
        std::max<std::int64_t>(2, static_cast<std::int64_t>(dim) / 16);
    EXPECT_LE(UlpDiff(ScalarSquaredDistance(a.data(), b.data(), dim),
                      expected),
              ulp_bound)
        << dim;
    EXPECT_LE(UlpDiff(SquaredDistance(a.data(), b.data(), dim), expected),
              ulp_bound)
        << dim;
  }
}

TEST(DistanceKernelsTest, RuntimeToggleRoundTrips) {
  testing::ScopedKernelMode restore;
  SetUseScalarKernels(true);
  EXPECT_TRUE(UseScalarKernels());
  SetUseScalarKernels(false);
  EXPECT_FALSE(UseScalarKernels());
}

TEST(DistanceKernelsTest, ViewOverloadsMatchPointerOverloads) {
  core::Rng rng(11);
  FeatureVector a = RandomFeature(rng, 16);
  FeatureVector b = RandomFeature(rng, 16);
  FeatureView va(a), vb(b);
  EXPECT_EQ(UlpDiff(SquaredDistance(va, vb),
                    SquaredDistance(a.data(), b.data(), 16)),
            0);
  EXPECT_EQ(UlpDiff(Distance(va, vb), Distance(a.data(), b.data(), 16)), 0);
}

#if TMERGE_DCHECK_ENABLED
// The per-call dimension check is debug-only: dimensions are validated at
// FeatureStore registration, so release builds run the kernels unchecked.
TEST(DistanceKernelsDeathTest, MismatchedViewDimsAbortInDebug) {
  FeatureVector a{1.0}, b{1.0, 2.0};
  EXPECT_DEATH(SquaredDistance(FeatureView(a), FeatureView(b)),
               "TMERGE_CHECK");
  EXPECT_DEATH(Distance(FeatureView(a), FeatureView(b)), "TMERGE_CHECK");
}
#endif

}  // namespace
}  // namespace tmerge::reid::kernels
