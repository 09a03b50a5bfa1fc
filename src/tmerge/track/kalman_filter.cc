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

template <std::size_t N>
constexpr Matrix<N, N> Diagonal(const std::array<double, N>& diagonal) {
  Matrix<N, N> m{};
  for (std::size_t i = 0; i < N; ++i) m[i][i] = diagonal[i];
  return m;
}

// Process and measurement noise, and the initial covariance, mirror the
// reference SORT implementation: high uncertainty on the unobserved
// velocities. Q and R are diagonal and enter only through their diagonals.
constexpr std::array<double, 7> kQ = {1, 1, 1, 1, 0.01, 0.01, 0.01};
constexpr std::array<double, 4> kR = {1, 1, 10, 0.01};
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
std::array<double, 4> BoxToMeasurement(const core::BoundingBox& box) {
  return {box.x + box.width / 2.0, box.y + box.height / 2.0,
          std::max(1.0, box.Area()), box.width / std::max(1.0, box.height)};
}

core::BoundingBox StateToBox(const std::array<double, 7>& x) {
  double s = std::max(1.0, x[2]);
  double r = std::max(0.05, x[3]);
  double width = std::sqrt(s * r);
  double height = s / std::max(1e-6, width);
  return {x[0] - width / 2.0, x[1] - height / 2.0, width, height};
}

}  // namespace

// Predict and Update compute SORT's x = F x, P = F P Fᵀ + Q,
// S = H P Hᵀ + R, K = P Hᵀ S⁻¹, x += K y and P = (I − K H) P in closed
// form over the nonzero pattern of F (the identity plus
// x[i] += x[i + 4] for i < 3) and H (the first four states). The bits are
// those of the dense products: each entry is a sum that starts from +0.0
// and adds its terms in k order. A sum that starts at +0.0 is never −0.0,
// and adding a ±0.0 term to it changes nothing, so the terms with a zero
// factor are left out here; the +0.0 start is what turns a −0.0 input
// into +0.0, so every entry keeps it. Multiplying by one of F's or H's
// unit entries is exact. All 49 entries of P are computed, because the
// stored P is not bitwise symmetric. KalmanBoxFilterTest's
// ClosedFormMatchesDenseProducts holds the filter to the dense chain.

KalmanBoxFilter::KalmanBoxFilter(const core::BoundingBox& box)
    : x_{}, p_(kP0) {
  const std::array<double, 4> z = BoxToMeasurement(box);
  std::copy(z.begin(), z.end(), x_.begin());
}

core::BoundingBox KalmanBoxFilter::Predict() {
  // Keep the area non-negative after the velocity step.
  if (x_[2] + x_[6] <= 0.0) x_[6] = 0.0;
  for (std::size_t i = 0; i < 3; ++i) x_[i] = 0.0 + x_[i] + x_[i + 4];
  for (std::size_t i = 3; i < 7; ++i) x_[i] = 0.0 + x_[i];
  // F P adds row i + 4 to row i for i < 3, then (F P) Fᵀ adds column
  // i + 4 to column i. Both passes run in place: rows and columns 4 to 6
  // are read before they are rewritten.
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      p_[r][c] = r < 3 ? 0.0 + p_[r][c] + p_[r + 4][c] : 0.0 + p_[r][c];
    }
  }
  for (auto& row : p_) {
    for (std::size_t c = 0; c < 7; ++c) {
      row[c] = c < 3 ? 0.0 + row[c] + row[c + 4] : 0.0 + row[c];
    }
  }
  for (std::size_t i = 0; i < 7; ++i) p_[i][i] += kQ[i];
  return StateToBox(x_);
}

void KalmanBoxFilter::Update(const core::BoundingBox& box) {
  // H selects the first four states: H x is x's head and H P Hᵀ is P's
  // top-left 4 x 4 block.
  const std::array<double, 4> z = BoxToMeasurement(box);
  std::array<double, 4> y;
  Matrix<4, 4> s;
  for (std::size_t i = 0; i < 4; ++i) {
    y[i] = z[i] - (0.0 + x_[i]);
    for (std::size_t j = 0; j < 4; ++j) s[i][j] = 0.0 + p_[i][j];
    s[i][i] += kR[i];
  }
  // K = (P Hᵀ) S⁻¹, where P Hᵀ is P's first four columns.
  const Matrix<4, 4> s_inv = Inverse(s);
  Matrix<7, 4> gain;
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t j = 0; j < 4; ++j) {
      gain[r][j] = 0.0 + p_[r][0] * s_inv[0][j] + p_[r][1] * s_inv[1][j] +
                   p_[r][2] * s_inv[2][j] + p_[r][3] * s_inv[3][j];
    }
    x_[r] += 0.0 + gain[r][0] * y[0] + gain[r][1] * y[1] + gain[r][2] * y[2] +
             gain[r][3] * y[3];
  }
  // Row r of I − K H is e_r − K's row r on the first four columns and e_r
  // on the rest, so entry (r, c) of (I − K H) P sums over k < 4 and then,
  // for r >= 4, adds P[r][c] itself.
  Matrix<7, 7> next;
  for (std::size_t r = 0; r < 7; ++r) {
    std::array<double, 4> a;
    for (std::size_t k = 0; k < 4; ++k) {
      a[k] = (r == k ? 1.0 : 0.0) - gain[r][k];
    }
    for (std::size_t c = 0; c < 7; ++c) {
      double sum = 0.0 + a[0] * p_[0][c] + a[1] * p_[1][c] +
                   a[2] * p_[2][c] + a[3] * p_[3][c];
      if (r >= 4) sum += p_[r][c];
      next[r][c] = sum;
    }
  }
  p_ = next;
}

core::BoundingBox KalmanBoxFilter::StateBox() const { return StateToBox(x_); }

}  // namespace tmerge::track
