#include "tmerge/track/kalman_filter.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "tmerge/core/status.h"

namespace tmerge::track {
namespace {

// Row-major R x C matrix.
template <std::size_t R, std::size_t C>
using Matrix = std::array<std::array<double, C>, R>;

// a * b. Every entry sums its terms in k order starting from +0.0 and skips
// zero entries of `a`. The filter's output bits depend on that order, so
// products with the sparse constants below deliberately stay generic.
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

// Constant-velocity transition: position += velocity each frame.
constexpr Matrix<7, 7> kF = [] {
  Matrix<7, 7> f = kIdentity;
  f[0][4] = 1.0;
  f[1][5] = 1.0;
  f[2][6] = 1.0;
  return f;
}();
constexpr Matrix<7, 7> kFt = Transpose(kF);

// The measurement is the first four state entries.
constexpr Matrix<4, 7> kH = [] {
  Matrix<4, 7> h{};
  for (std::size_t i = 0; i < 4; ++i) h[i][i] = 1.0;
  return h;
}();
constexpr Matrix<7, 4> kHt = Transpose(kH);

// Process and measurement noise, and the initial covariance, mirror the
// reference SORT implementation: high uncertainty on the unobserved
// velocities.
constexpr Matrix<7, 7> kQ = Diagonal<7>({1, 1, 1, 1, 0.01, 0.01, 0.01});
constexpr Matrix<4, 4> kR = Diagonal<4>({1, 1, 10, 0.01});
constexpr Matrix<7, 7> kP0 = Diagonal<7>({1, 1, 10, 1, 1000, 1000, 1000});

// Gauss-Jordan elimination with partial pivoting (first row with the
// strictly largest magnitude). Innovation covariances are always
// well-conditioned; a near-singular one is a programming error.
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

// Converts a box to the SORT measurement [cx, cy, s, r].
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

}  // namespace

KalmanBoxFilter::KalmanBoxFilter(const core::BoundingBox& box)
    : x_{}, p_(kP0) {
  const Matrix<4, 1> z = BoxToMeasurement(box);
  std::copy(z.begin(), z.end(), x_.begin());
}

core::BoundingBox KalmanBoxFilter::Predict() {
  // Keep the area non-negative after the velocity step.
  if (x_[2][0] + x_[6][0] <= 0.0) x_[6][0] = 0.0;
  x_ = Multiply(kF, x_);
  p_ = Plus(Multiply(Multiply(kF, p_), kFt), kQ);
  return StateToBox(x_);
}

void KalmanBoxFilter::Update(const core::BoundingBox& box) {
  const Matrix<4, 1> y = Minus(BoxToMeasurement(box), Multiply(kH, x_));
  const Matrix<4, 4> s = Plus(Multiply(Multiply(kH, p_), kHt), kR);
  const Matrix<7, 4> k = Multiply(Multiply(p_, kHt), Inverse(s));
  x_ = Plus(x_, Multiply(k, y));
  p_ = Multiply(Minus(kIdentity, Multiply(k, kH)), p_);
}

core::BoundingBox KalmanBoxFilter::StateBox() const { return StateToBox(x_); }

}  // namespace tmerge::track
