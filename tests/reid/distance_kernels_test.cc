#include "tmerge/reid/distance_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

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

/// Restores the kernel dispatch mode on scope exit so tests cannot leak a
/// toggled mode into each other.
class ScopedKernelMode {
 public:
  ScopedKernelMode() : saved_(UseScalarKernels()) {}
  ~ScopedKernelMode() { SetUseScalarKernels(saved_); }

 private:
  bool saved_;
};

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
  ScopedKernelMode restore;
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

// The SSE2 one-vs-many sweep returns the scalar toggle's bytes. Dims
// cross the unrolled loop's remainder; counts reach every 8-row, 4-row
// and single-row branch of the sweep. Each row also equals the
// single-pair kernel on its own path.
TEST(DistanceKernelsTest, OneVsManyMatchesSingleCalls) {
  ScopedKernelMode restore;
  core::Rng rng(99);
  for (std::size_t dim : {1u, 3u, 8u, 16u, 17u, 33u, 64u}) {
    for (std::size_t count : {1u, 2u, 7u, 9u, 37u}) {
      std::vector<double> query = RandomFeature(rng, dim);
      std::vector<std::vector<double>> features;
      std::vector<const double*> many;
      for (std::size_t i = 0; i < count; ++i) {
        features.push_back(RandomFeature(rng, dim));
        many.push_back(features.back().data());
      }
      std::vector<double> reference(count);
      std::vector<double> out(count);
      SetUseScalarKernels(true);
      OneVsManySquared(query.data(), many.data(), count, dim,
                       reference.data());
      SetUseScalarKernels(false);
      OneVsManySquared(query.data(), many.data(), count, dim, out.data());
      EXPECT_EQ(
          std::memcmp(out.data(), reference.data(), count * sizeof(double)),
          0)
          << "dim=" << dim << " count=" << count;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(
            UlpDiff(out[i], SquaredDistance(query.data(), many[i], dim)), 0)
            << "dim=" << dim << " count=" << count << " i=" << i;
        EXPECT_EQ(UlpDiff(reference[i],
                          ScalarSquaredDistance(query.data(), many[i], dim)),
                  0)
            << "dim=" << dim << " count=" << count << " i=" << i;
      }
    }
  }
}

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

// The batched normalize epilogue must match the scalar
// sqrt-divide-clamp element for element, bit for bit, in both dispatch
// modes. Odd counts exercise the SSE2 remainder lane; in-place operation
// is part of the contract.
TEST(DistanceKernelsTest, NormalizedFromSquaredManyBitIdentical) {
  ScopedKernelMode restore;
  core::Rng rng(33);
  constexpr double kScale = 4.0;
  for (std::size_t count : {1u, 2u, 7u, 16u, 33u}) {
    std::vector<double> squared(count);
    for (double& s : squared) {
      const double x = rng.Normal(0.0, 3.0);
      s = x * x;  // Non-negative, spanning [0, 1] and clamped territory.
    }
    std::vector<double> expected(count);
    for (std::size_t i = 0; i < count; ++i) {
      expected[i] = std::clamp(std::sqrt(squared[i]) / kScale, 0.0, 1.0);
    }
    for (bool scalar : {false, true}) {
      SetUseScalarKernels(scalar);
      std::vector<double> out(count);
      NormalizedFromSquaredMany(squared.data(), count, kScale, out.data());
      std::vector<double> in_place = squared;
      NormalizedFromSquaredMany(in_place.data(), count, kScale,
                                in_place.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(UlpDiff(out[i], expected[i]), 0)
            << "scalar=" << scalar << " count=" << count << " i=" << i;
        EXPECT_EQ(UlpDiff(in_place[i], expected[i]), 0)
            << "scalar=" << scalar << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(DistanceKernelsTest, RuntimeToggleRoundTrips) {
  ScopedKernelMode restore;
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
