#include "tmerge/gate/pair_gate.h"

#include <algorithm>
#include <cstddef>

#include "tmerge/core/geometry.h"
#include "tmerge/track/track.h"

namespace tmerge::gate {
namespace {

/// Boxes used to estimate the earlier track's velocity.
constexpr std::size_t kVelocityWindow = 8;

/// Pixels/frame along each axis.
struct Velocity {
  double vx = 0.0;
  double vy = 0.0;
};

/// Endpoint-slope velocity estimate over the last up-to-kVelocityWindow
/// boxes of `track`: (last center - first-of-window center) / frames
/// between them. Single-box tracks report zero velocity (extrapolation
/// degenerates to "the box stays put", which is the honest prior with one
/// observation).
Velocity EstimateVelocity(const track::Track& track) {
  const std::size_t n = track.boxes.size();
  if (n < 2) return {0.0, 0.0};
  const std::size_t span = std::min(n, kVelocityWindow);
  const track::TrackedBox& first = track.boxes[n - span];
  const track::TrackedBox& last = track.boxes[n - 1];
  const std::int32_t frames = last.frame - first.frame;
  if (frames <= 0) return {0.0, 0.0};
  core::Point a = first.box.Center();
  core::Point b = last.box.Center();
  return {(b.x - a.x) / frames, (b.y - a.y) / frames};
}

}  // namespace

GateEvidence ComputeEvidence(const merge::PairContext& context,
                             std::size_t index) {
  const track::Track& a = context.TrackA(index);
  const track::Track& b = context.TrackB(index);
  // Temporal order, matching PairContext::SpatialDistance's convention.
  const track::Track& earlier = a.last_frame() <= b.last_frame() ? a : b;
  const track::Track& later = a.last_frame() <= b.last_frame() ? b : a;

  GateEvidence evidence;
  evidence.gap_frames = context.TemporalGap(index);
  evidence.spatial_distance = context.SpatialDistance(index);

  const track::TrackedBox& from = earlier.boxes.back();
  const track::TrackedBox& to = later.boxes.front();
  // Frames to extrapolate across; admissible pairs may overlap by a couple
  // of frames (merge::PairAdmissible), in which case the boxes are
  // compared where they stand.
  const std::int32_t delta = std::max(to.frame - from.frame, 0);
  evidence.required_speed =
      evidence.spatial_distance / static_cast<double>(std::max(delta, 1));

  const Velocity velocity = EstimateVelocity(earlier);
  core::BoundingBox predicted = from.box;
  predicted.x += velocity.vx * delta;
  predicted.y += velocity.vy * delta;
  evidence.extrapolated_iou = core::Iou(predicted, to.box);
  return evidence;
}

GateVerdict Classify(const GateEvidence& evidence, const GateConfig& config) {
  // Accept rules FIRST: a pair whose evidence clears the accept thresholds
  // is never rejected, whatever the reject rules would say (the gate
  // soundness property).
  if (evidence.extrapolated_iou >= config.accept_min_iou &&
      evidence.gap_frames <= config.accept_max_gap_frames) {
    return GateVerdict::kAccept;
  }
  if (evidence.gap_frames > config.reject_min_gap_frames) {
    return GateVerdict::kReject;
  }
  if (evidence.required_speed > config.max_speed_pixels_per_frame &&
      evidence.extrapolated_iou <= config.reject_max_iou) {
    return GateVerdict::kReject;
  }
  return GateVerdict::kAmbiguous;
}

GateVerdict ClassifyPair(const merge::PairContext& context, std::size_t index,
                         const GateConfig& config) {
  return Classify(ComputeEvidence(context, index), config);
}

}  // namespace tmerge::gate
