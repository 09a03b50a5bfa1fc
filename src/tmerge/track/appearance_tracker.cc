#include "tmerge/track/appearance_tracker.h"

#include <limits>
#include <vector>

#include "tmerge/core/status.h"
#include "tmerge/track/hungarian.h"
#include "tmerge/track/kalman_filter.h"

namespace tmerge::track {
namespace {

/// Weight of the appearance term in the association cost; the remainder
/// weights (1 - IoU).
constexpr double kAppearanceWeight = 0.6;
/// Matches whose combined cost exceeds this are rejected.
constexpr double kMaxMatchCost = 0.72;
/// Spatial gate: a detection farther than this from the track's last
/// center (scaled up while coasting) cannot match.
constexpr double kGateDistance = 120.0;
/// Per-coasted-frame widening of the gate.
constexpr double kGateGrowth = 0.35;
/// Exponential moving average factor for the track's appearance.
constexpr double kAppearanceMomentum = 0.85;
/// Frames a track coasts without a match before it is finalized.
constexpr std::int32_t kMaxAge = 18;
/// Tracks with fewer boxes than this are dropped as blips.
constexpr std::int32_t kMinHits = 3;
/// Detections below this confidence are ignored.
constexpr double kMinConfidence = 0.35;

struct ActiveTrack {
  TrackId id;
  KalmanBoxFilter filter;
  std::vector<TrackedBox> boxes;
  reid::FeatureVector appearance;
  std::int32_t time_since_update = 0;
  core::BoundingBox predicted;
};

void BlendAppearance(reid::FeatureVector& mean,
                     const reid::FeatureVector& fresh, double momentum) {
  if (mean.empty()) {
    mean = fresh;
    return;
  }
  for (std::size_t i = 0; i < mean.size(); ++i) {
    mean[i] = momentum * mean[i] + (1.0 - momentum) * fresh[i];
  }
}

}  // namespace

AppearanceTracker::AppearanceTracker(const reid::ReidModel* model)
    : model_(model) {
  TMERGE_CHECK(model_ != nullptr);
}

TrackingResult AppearanceTracker::Run(
    const detect::DetectionSequence& detections) {
  TrackingResult result;
  result.tracker_name = name();
  result.num_frames = detections.num_frames;
  result.frame_width = detections.frame_width;
  result.frame_height = detections.frame_height;
  result.fps = detections.fps;

  constexpr double kInfCost = 1e9;
  std::vector<ActiveTrack> active;
  TrackId next_id = 1;

  auto finalize = [&](ActiveTrack& track) {
    if (static_cast<std::int32_t>(track.boxes.size()) >= kMinHits) {
      Track out;
      out.id = track.id;
      out.boxes = std::move(track.boxes);
      result.tracks.push_back(std::move(out));
    }
  };

  for (const auto& frame : detections.frames) {
    for (auto& track : active) {
      track.predicted = track.filter.Predict();
    }

    std::vector<const detect::Detection*> dets;
    for (const auto& detection : frame.detections) {
      if (detection.confidence >= kMinConfidence) {
        dets.push_back(&detection);
      }
    }
    // Embed once per detection (DeepSORT embeds every detection it tracks).
    std::vector<reid::FeatureVector> det_features;
    det_features.reserve(dets.size());
    for (const auto* det : dets) {
      det_features.push_back(model_->Embed(reid::CropRef{
          det->detection_id, det->gt_id, det->visibility, det->glared,
          det->noise_seed}));
    }

    std::vector<int> det_of_track(active.size(), -1);
    std::vector<char> det_used(dets.size(), 0);
    if (!active.empty() && !dets.empty()) {
      std::vector<std::vector<double>> cost(
          active.size(), std::vector<double>(dets.size(), kInfCost));
      for (std::size_t t = 0; t < active.size(); ++t) {
        const ActiveTrack& track = active[t];
        double gate =
            kGateDistance * (1.0 + kGateGrowth * track.time_since_update);
        for (std::size_t d = 0; d < dets.size(); ++d) {
          double center_dist = core::Distance(track.predicted.Center(),
                                              dets[d]->box.Center());
          if (center_dist > gate) continue;
          double appearance_cost =
              model_->NormalizedDistance(track.appearance, det_features[d]);
          double iou_cost = 1.0 - core::Iou(track.predicted, dets[d]->box);
          cost[t][d] = kAppearanceWeight * appearance_cost +
                       (1.0 - kAppearanceWeight) * iou_cost;
        }
      }
      std::vector<int> assignment = SolveAssignment(cost);
      for (std::size_t t = 0; t < active.size(); ++t) {
        int d = assignment[t];
        if (d >= 0 && cost[t][d] <= kMaxMatchCost) {
          det_of_track[t] = d;
          det_used[d] = 1;
        }
      }
    }

    for (std::size_t t = 0; t < active.size(); ++t) {
      if (det_of_track[t] >= 0) {
        int d = det_of_track[t];
        active[t].filter.Update(dets[d]->box);
        active[t].boxes.push_back(TrackedBox::FromDetection(*dets[d]));
        BlendAppearance(active[t].appearance, det_features[d],
                        kAppearanceMomentum);
        active[t].time_since_update = 0;
      } else {
        ++active[t].time_since_update;
      }
    }

    std::vector<ActiveTrack> survivors;
    survivors.reserve(active.size());
    for (auto& track : active) {
      if (track.time_since_update > kMaxAge) {
        finalize(track);
      } else {
        survivors.push_back(std::move(track));
      }
    }
    active = std::move(survivors);

    for (std::size_t d = 0; d < dets.size(); ++d) {
      if (det_used[d]) continue;
      ActiveTrack track{next_id++, KalmanBoxFilter(dets[d]->box), {},
                        det_features[d], 0, {}};
      track.boxes.push_back(TrackedBox::FromDetection(*dets[d]));
      active.push_back(std::move(track));
    }
  }

  for (auto& track : active) finalize(track);
  return result;
}

}  // namespace tmerge::track
