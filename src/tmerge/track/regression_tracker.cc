#include "tmerge/track/regression_tracker.h"

#include <algorithm>
#include <vector>

namespace tmerge::track {
namespace {

/// Minimum IoU between a track's last box and a current-frame detection
/// for the "regression" step to keep the track alive.
constexpr double kActiveIou = 0.35;
/// New tracks are spawned only from confident detections...
constexpr double kSpawnConfidence = 0.5;
/// ...that do not overlap an active track by more than this (NMS).
constexpr double kSpawnNmsIou = 0.25;
/// Frames a track coasts without support before termination. Tracktor
/// has no long-term re-identification in its base form, so this is short.
constexpr std::int32_t kMaxAge = 8;
/// Tracks with fewer boxes than this are dropped as blips.
constexpr std::int32_t kMinHits = 3;
/// Detections below this confidence are ignored.
constexpr double kMinConfidence = 0.3;

struct ActiveTrack {
  TrackId id;
  std::vector<TrackedBox> boxes;
  core::BoundingBox last_box;
  std::int32_t time_since_update = 0;
};

}  // namespace

TrackingResult RegressionTracker::Run(
    const detect::DetectionSequence& detections) {
  TrackingResult result;
  result.tracker_name = name();
  result.num_frames = detections.num_frames;
  result.frame_width = detections.frame_width;
  result.frame_height = detections.frame_height;
  result.fps = detections.fps;

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
    std::vector<const detect::Detection*> dets;
    for (const auto& detection : frame.detections) {
      if (detection.confidence >= kMinConfidence) {
        dets.push_back(&detection);
      }
    }
    std::vector<char> det_used(dets.size(), 0);

    // Regression step: each active track greedily claims the best-IoU
    // detection near its previous box. Tracks that have coasted less are
    // served first (their position estimate is fresher).
    std::vector<std::size_t> order(active.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return active[a].time_since_update < active[b].time_since_update;
    });

    for (std::size_t idx : order) {
      ActiveTrack& track = active[idx];
      double best_iou = 0.0;
      int best_det = -1;
      for (std::size_t d = 0; d < dets.size(); ++d) {
        if (det_used[d]) continue;
        double iou = core::Iou(track.last_box, dets[d]->box);
        if (iou > best_iou) {
          best_iou = iou;
          best_det = static_cast<int>(d);
        }
      }
      if (best_det >= 0 && best_iou >= kActiveIou) {
        det_used[best_det] = 1;
        track.boxes.push_back(TrackedBox::FromDetection(*dets[best_det]));
        track.last_box = dets[best_det]->box;
        track.time_since_update = 0;
      } else {
        ++track.time_since_update;
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

    // Spawn step: confident detections that do not overlap an active track.
    for (std::size_t d = 0; d < dets.size(); ++d) {
      if (det_used[d] || dets[d]->confidence < kSpawnConfidence) {
        continue;
      }
      bool overlaps_active = false;
      for (const auto& track : active) {
        if (core::Iou(track.last_box, dets[d]->box) > kSpawnNmsIou) {
          overlaps_active = true;
          break;
        }
      }
      if (overlaps_active) continue;
      ActiveTrack track{next_id++, {}, dets[d]->box, 0};
      track.boxes.push_back(TrackedBox::FromDetection(*dets[d]));
      active.push_back(std::move(track));
    }
  }

  for (auto& track : active) finalize(track);
  return result;
}

}  // namespace tmerge::track
