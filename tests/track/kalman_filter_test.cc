#include "tmerge/track/kalman_filter.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ios>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"

namespace tmerge::track {
namespace {

TEST(KalmanBoxFilterTest, InitialStateMatchesBox) {
  core::BoundingBox box{100, 200, 50, 120};
  KalmanBoxFilter filter(box);
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.x, box.x, 1e-6);
  EXPECT_NEAR(state.y, box.y, 1e-6);
  EXPECT_NEAR(state.width, box.width, 1e-6);
  EXPECT_NEAR(state.height, box.height, 1e-6);
}

TEST(KalmanBoxFilterTest, StationaryObjectStaysPut) {
  core::BoundingBox box{100, 200, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 0; i < 20; ++i) {
    filter.Predict();
    filter.Update(box);
  }
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.x, box.x, 1.0);
  EXPECT_NEAR(state.y, box.y, 1.0);
}

TEST(KalmanBoxFilterTest, LearnsConstantVelocity) {
  core::BoundingBox box{100, 100, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 1; i <= 30; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.x = 100 + 3.0 * i;
    filter.Update(observed);
  }
  // After convergence the one-step prediction should land ~3px right of the
  // last update.
  core::BoundingBox predicted = filter.Predict();
  EXPECT_NEAR(predicted.x, 100 + 3.0 * 31, 1.5);
}

TEST(KalmanBoxFilterTest, PredictionContinuesThroughGap) {
  // While detections are missing (occlusion), repeated Predict() must
  // extrapolate along the learned velocity — the behavior SORT relies on
  // to bridge short gaps.
  core::BoundingBox box{100, 100, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 1; i <= 30; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.x = 100 + 2.0 * i;
    filter.Update(observed);
  }
  double last_x = filter.StateBox().x;
  core::BoundingBox coasted;
  for (int i = 0; i < 5; ++i) coasted = filter.Predict();
  EXPECT_GT(coasted.x, last_x + 5.0);
}

TEST(KalmanBoxFilterTest, AspectRatioStable) {
  core::BoundingBox box{50, 50, 40, 100};
  KalmanBoxFilter filter(box);
  for (int i = 0; i < 10; ++i) {
    filter.Predict();
    filter.Update(box);
  }
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.width / state.height, 0.4, 0.02);
}

TEST(KalmanBoxFilterTest, AreaNeverNegative) {
  core::BoundingBox box{50, 50, 40, 100};
  KalmanBoxFilter filter(box);
  // Shrinking observations could drive the area velocity negative; the
  // filter must clamp rather than produce an invalid box.
  for (int i = 0; i < 40; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.width = std::max(2.0, 40.0 - i);
    observed.height = std::max(5.0, 100.0 - 2.5 * i);
    filter.Update(observed);
  }
  for (int i = 0; i < 50; ++i) {
    core::BoundingBox predicted = filter.Predict();
    EXPECT_GT(predicted.Area(), 0.0);
  }
}

// FNV-1a over the bit patterns of every box folded in.
class BoxBitsHash {
 public:
  void Fold(const core::BoundingBox& box) {
    for (double value : {box.x, box.y, box.width, box.height}) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
      for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (bits >> (8 * byte)) & 0xFF;
        hash_ *= 0x100000001B3ULL;
      }
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Pins the exact bits of every Predict() and StateBox() result. The other
// tests here allow a tolerance, and a one-ulp drift could still flip an
// IoU association on some input. The box sequence is RNG-free: it moves,
// coasts through gaps, shrinks until the area-velocity clamp fires, and
// then holds still.
TEST(KalmanBoxFilterTest, StateBitsMatchReference) {
  KalmanBoxFilter filter({100, 200, 50, 120});
  BoxBitsHash hash;
  auto observe = [&](const core::BoundingBox& box) {
    hash.Fold(filter.Predict());
    filter.Update(box);
    hash.Fold(filter.StateBox());
  };
  auto coast = [&](int frames) {
    for (int i = 0; i < frames; ++i) hash.Fold(filter.Predict());
  };

  // Constant velocity, broken by two gaps.
  for (int i = 1; i <= 30; ++i) {
    if (i == 10) coast(3);
    if (i == 20) coast(5);
    observe({100 + 3.0 * i, 200 + 1.5 * i, 50, 120});
  }
  const core::BoundingBox moving = filter.StateBox();

  // Shrink fast, then coast: the predicted area falls until x[2] + x[6]
  // would reach zero, after which the clamped area velocity keeps the
  // box size fixed.
  for (int i = 1; i <= 8; ++i) {
    observe({190 + 2.0 * i, 245, 50 - 5.0 * i, 120 - 12.0 * i});
  }
  core::BoundingBox coasted = filter.Predict();
  hash.Fold(coasted);
  int shrinking = 0;
  int frozen = 0;
  for (int i = 0; i < 20; ++i) {
    const double last_width = coasted.width;
    coasted = filter.Predict();
    hash.Fold(coasted);
    if (coasted.width < last_width) ++shrinking;
    if (coasted.width == last_width) ++frozen;
  }
  EXPECT_GT(shrinking, 0);
  EXPECT_GT(frozen, 0);

  // Hold still.
  for (int i = 0; i < 25; ++i) observe({230, 240, 12, 30});
  const core::BoundingBox still = filter.StateBox();

  EXPECT_EQ(moving.x, 0x1.7b5a0d6c56533p+7) << std::hexfloat << moving.x;
  EXPECT_EQ(coasted.width, 0x1.dc2cfd5e8b012p+2)
      << std::hexfloat << coasted.width;
  EXPECT_EQ(still.width, 0x1.81b94952a5db6p+3) << std::hexfloat << still.width;
  EXPECT_EQ(hash.value(), 0xEC71D9F5AF2E1434ULL) << std::hex << hash.value();
}

// The dense product chain that KalmanBoxFilter is specified by: 7x7
// products with F, H, their transposes, Q, R and the identity, each entry
// summed in k order from +0.0 with zero entries of the left factor
// skipped, and the Gauss-Jordan inverse of S. The filter computes the same
// sums over F's and H's nonzero pattern; this chain is the reference it is
// compared with, bit for bit.
namespace dense {

template <std::size_t R, std::size_t C>
using Matrix = std::array<std::array<double, C>, R>;

template <std::size_t R, std::size_t K, std::size_t C>
Matrix<R, C> Multiply(const Matrix<R, K>& a, const Matrix<K, C>& b) {
  Matrix<R, C> out{};
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t k = 0; k < K; ++k) {
      const double v = a[r][k];
      if (v == 0.0) continue;
      for (std::size_t c = 0; c < C; ++c) out[r][c] += v * b[k][c];
    }
  }
  return out;
}

template <std::size_t R, std::size_t C>
Matrix<R, C> Plus(Matrix<R, C> a, const Matrix<R, C>& b) {
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) a[r][c] += b[r][c];
  }
  return a;
}

template <std::size_t R, std::size_t C>
Matrix<R, C> Minus(Matrix<R, C> a, const Matrix<R, C>& b) {
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) a[r][c] -= b[r][c];
  }
  return a;
}

template <std::size_t N>
constexpr Matrix<N, N> Diagonal(const std::array<double, N>& diagonal) {
  Matrix<N, N> m{};
  for (std::size_t i = 0; i < N; ++i) m[i][i] = diagonal[i];
  return m;
}

template <std::size_t R, std::size_t C>
constexpr Matrix<C, R> Transpose(const Matrix<R, C>& m) {
  Matrix<C, R> t{};
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) t[c][r] = m[r][c];
  }
  return t;
}

constexpr Matrix<7, 7> kIdentity = Diagonal<7>({1, 1, 1, 1, 1, 1, 1});
constexpr Matrix<7, 7> kF = [] {
  Matrix<7, 7> f = kIdentity;
  f[0][4] = 1.0;
  f[1][5] = 1.0;
  f[2][6] = 1.0;
  return f;
}();
constexpr Matrix<7, 7> kFt = Transpose(kF);
constexpr Matrix<4, 7> kH = [] {
  Matrix<4, 7> h{};
  for (std::size_t i = 0; i < 4; ++i) h[i][i] = 1.0;
  return h;
}();
constexpr Matrix<7, 4> kHt = Transpose(kH);
constexpr Matrix<7, 7> kQ = Diagonal<7>({1, 1, 1, 1, 0.01, 0.01, 0.01});
constexpr Matrix<4, 4> kR = Diagonal<4>({1, 1, 10, 0.01});
constexpr Matrix<7, 7> kP0 = Diagonal<7>({1, 1, 10, 1, 1000, 1000, 1000});

Matrix<4, 4> Inverse(Matrix<4, 4> a) {
  Matrix<4, 4> inv = Diagonal<4>({1, 1, 1, 1});
  for (std::size_t col = 0; col < 4; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < 4; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    TMERGE_CHECK(std::abs(a[pivot][col]) > 1e-12);
    if (pivot != col) {
      std::swap(a[pivot], a[col]);
      std::swap(inv[pivot], inv[col]);
    }
    const double d = a[col][col];
    for (std::size_t c = 0; c < 4; ++c) {
      a[col][c] /= d;
      inv[col][c] /= d;
    }
    for (std::size_t r = 0; r < 4; ++r) {
      if (r == col) continue;
      const double factor = a[r][col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < 4; ++c) {
        a[r][c] -= factor * a[col][c];
        inv[r][c] -= factor * inv[col][c];
      }
    }
  }
  return inv;
}

Matrix<4, 1> BoxToMeasurement(const core::BoundingBox& box) {
  return {{{box.x + box.width / 2.0},
           {box.y + box.height / 2.0},
           {std::max(1.0, box.Area())},
           {box.width / std::max(1.0, box.height)}}};
}

core::BoundingBox StateToBox(const Matrix<7, 1>& x) {
  double s = std::max(1.0, x[2][0]);
  double r = std::max(0.05, x[3][0]);
  double width = std::sqrt(s * r);
  double height = s / std::max(1e-6, width);
  return {x[0][0] - width / 2.0, x[1][0] - height / 2.0, width, height};
}

// The filter's state and covariance, in the filter's layout.
struct Filter {
  explicit Filter(const core::BoundingBox& box) : x{}, p(kP0) {
    const Matrix<4, 1> z = BoxToMeasurement(box);
    std::copy(z.begin(), z.end(), x.begin());
  }

  core::BoundingBox Predict() {
    if (x[2][0] + x[6][0] <= 0.0) x[6][0] = 0.0;
    x = Multiply(kF, x);
    p = Plus(Multiply(Multiply(kF, p), kFt), kQ);
    return StateToBox(x);
  }

  void Update(const core::BoundingBox& box) {
    const Matrix<4, 1> y = Minus(BoxToMeasurement(box), Multiply(kH, x));
    const Matrix<4, 4> s = Plus(Multiply(Multiply(kH, p), kHt), kR);
    const Matrix<7, 4> k = Multiply(Multiply(p, kHt), Inverse(s));
    x = Plus(x, Multiply(k, y));
    p = Multiply(Minus(kIdentity, Multiply(k, kH)), p);
  }

  core::BoundingBox StateBox() const { return StateToBox(x); }

  Matrix<7, 1> x;
  Matrix<7, 7> p;
};

static_assert(std::is_trivially_copyable_v<Filter>);
static_assert(sizeof(Filter) == sizeof(KalmanBoxFilter));

}  // namespace dense

bool SameBits(const KalmanBoxFilter& filter, const dense::Filter& reference) {
  return std::memcmp(&filter, &reference, sizeof(reference)) == 0;
}

bool SameBits(const core::BoundingBox& a, const core::BoundingBox& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// One random sequence's boxes: a box that drifts at a per-segment
// velocity and area rate, with segments that shrink fast (which drives
// x[2] + x[6] to the clamp once the filter coasts), negative coordinates,
// and observations whose fields are +0.0 or -0.0.
class BoxWalk {
 public:
  explicit BoxWalk(core::Rng& rng) : rng_(rng) {
    box_ = {rng_.Uniform(-400.0, 1900.0), rng_.Uniform(-400.0, 1000.0),
            rng_.Uniform(1.0, 300.0), rng_.Uniform(1.0, 500.0)};
    NewSegment();
  }

  // The next observed box.
  core::BoundingBox Next() {
    if (--segment_left_ <= 0) NewSegment();
    box_.x += vx_ + rng_.Uniform(-1.0, 1.0);
    box_.y += vy_ + rng_.Uniform(-1.0, 1.0);
    box_.width *= growth_;
    box_.height *= growth_;
    return Degrade(box_);
  }

 private:
  // A box with each field replaced by +0.0 or -0.0 now and then.
  core::BoundingBox Degrade(core::BoundingBox box) {
    for (double* field : {&box.x, &box.y, &box.width, &box.height}) {
      if (rng_.Bernoulli(0.04)) *field = rng_.Bernoulli(0.5) ? 0.0 : -0.0;
    }
    return box;
  }

  void NewSegment() {
    segment_left_ = 1 + static_cast<int>(rng_.Uniform(0.0, 25.0));
    vx_ = rng_.Uniform(-15.0, 15.0);
    vy_ = rng_.Uniform(-8.0, 8.0);
    const double kind = rng_.Uniform01();
    if (kind < 0.25) {
      growth_ = rng_.Uniform(0.3, 0.8);  // Fast shrink.
    } else if (kind < 0.35) {
      growth_ = rng_.Uniform(1.05, 1.3);
    } else {
      growth_ = rng_.Uniform(0.98, 1.02);
    }
    // Keep sizes finite and away from denormals.
    if (box_.width < 0.5 || box_.height < 0.5) {
      box_.width = rng_.Uniform(1.0, 300.0);
      box_.height = rng_.Uniform(1.0, 500.0);
    }
  }

  core::Rng& rng_;
  core::BoundingBox box_;
  int segment_left_ = 0;
  double vx_ = 0.0;
  double vy_ = 0.0;
  double growth_ = 1.0;
};

// The filter against the dense chain over 20,000 random sequences of
// observed frames (Predict, then Update), coasts (Predict alone) and
// back-to-back Updates: after every step the whole filter (state and all
// 49 covariance entries) and every returned box must have the reference's
// bits.
TEST(KalmanBoxFilterTest, ClosedFormMatchesDenseProducts) {
  constexpr int kSequences = 20000;
  core::Rng rng(20240);
  std::int64_t steps = 0;
  std::int64_t clamps = 0;
  std::int64_t signed_zero_starts = 0;
  for (int sequence = 0; sequence < kSequences; ++sequence) {
    BoxWalk walk(rng);
    const core::BoundingBox first = walk.Next();
    if (std::signbit(first.width) && first.width == 0.0) ++signed_zero_starts;
    KalmanBoxFilter filter(first);
    dense::Filter reference(first);
    ASSERT_TRUE(SameBits(filter, reference)) << "sequence " << sequence;
    const int length = 1 + static_cast<int>(rng.Uniform(0.0, 120.0));
    int coast = 0;
    for (int step = 0; step < length; ++step, ++steps) {
      const double op = rng.Uniform01();
      if (coast == 0 && op < 0.06) {
        coast = 1 + static_cast<int>(rng.Uniform(0.0, 20.0));
      }
      if (coast > 0 || op < 0.9) {
        if (reference.x[2][0] + reference.x[6][0] <= 0.0) ++clamps;
        const core::BoundingBox predicted = filter.Predict();
        ASSERT_TRUE(SameBits(predicted, reference.Predict()))
            << "Predict, sequence " << sequence << " step " << step;
      }
      if (coast > 0) {
        --coast;
      } else {
        const core::BoundingBox observed = walk.Next();
        filter.Update(observed);
        reference.Update(observed);
      }
      ASSERT_TRUE(SameBits(filter, reference))
          << "sequence " << sequence << " step " << step;
      ASSERT_TRUE(SameBits(filter.StateBox(), reference.StateBox()));
    }
  }
  EXPECT_GT(steps, 1'000'000);
  EXPECT_GT(clamps, 1000);
  EXPECT_GT(signed_zero_starts, 10);
}

}  // namespace
}  // namespace tmerge::track
