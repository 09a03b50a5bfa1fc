#ifndef TMERGE_TRACK_KALMAN_FILTER_H_
#define TMERGE_TRACK_KALMAN_FILTER_H_

#include <array>
#include <type_traits>

#include "tmerge/core/geometry.h"

namespace tmerge::track {

/// SORT-parameterized constant-velocity Kalman filter over bounding boxes.
///
/// State x = [cx, cy, s, r, vcx, vcy, vs] where (cx, cy) is the box center,
/// s its area, r its aspect ratio (width/height, assumed constant), and v*
/// are per-frame velocities. Measurement z = [cx, cy, s, r]. This is the
/// exact formulation of Bewley et al.'s SORT tracker, which the paper uses
/// as one of its evaluated trackers.
///
/// A filter is just its state and covariance, held inline. Predict and
/// Update are written over the nonzero pattern of the transition F (the
/// identity plus position += velocity) and the measurement H (the first
/// four states), with the bits of the dense matrix products they replace
/// (kalman_filter.cc says how).
class KalmanBoxFilter {
 public:
  /// Initializes the filter from the first observed box.
  explicit KalmanBoxFilter(const core::BoundingBox& box);

  /// Advances the state one frame and returns the predicted box.
  core::BoundingBox Predict();

  /// Folds in an observed box.
  void Update(const core::BoundingBox& box);

  /// Current state estimate as a box.
  core::BoundingBox StateBox() const;

 private:
  std::array<double, 7> x_;                 // State.
  std::array<std::array<double, 7>, 7> p_;  // 7x7 covariance, row-major.
};

static_assert(std::is_trivially_copyable_v<KalmanBoxFilter>);

}  // namespace tmerge::track

#endif  // TMERGE_TRACK_KALMAN_FILTER_H_
