#include "tmerge/track/sort_tracker.h"

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "tmerge/track/hungarian.h"

namespace tmerge::track {

StreamingSortTracker::StreamingSortTracker(const SortConfig& config,
                                           std::int32_t num_frames,
                                           double frame_width,
                                           double frame_height, double fps)
    : config_(config) {
  result_.tracker_name = "SORT";
  result_.num_frames = num_frames;
  result_.frame_width = frame_width;
  result_.frame_height = frame_height;
  result_.fps = fps;
}

void StreamingSortTracker::Finalize(ActiveTrack& track) {
  if (static_cast<std::int32_t>(track.boxes.size()) >= config_.min_hits) {
    Track out;
    out.id = track.id;
    out.boxes = std::move(track.boxes);
    result_.tracks.push_back(std::move(out));
  }
}

void StreamingSortTracker::Observe(const detect::DetectionFrame& frame) {
  // Predict all active tracks forward one frame.
  for (auto& track : active_) {
    track.predicted = track.filter.Predict();
  }

  for (const auto& detection : frame.detections) {
    if (detection.confidence >= config_.min_confidence) {
      dets_.push_back(&detection);
    }
  }

  det_of_track_.assign(active_.size(), -1);
  det_used_.assign(dets_.size(), 0);
  if (!active_.empty() && !dets_.empty()) {
    cost_.resize(active_.size());
    for (std::size_t t = 0; t < active_.size(); ++t) {
      std::vector<double>& row = cost_[t];
      row.resize(dets_.size());
      for (std::size_t d = 0; d < dets_.size(); ++d) {
        row[d] = 1.0 - core::Iou(active_[t].predicted, dets_[d]->box);
      }
    }
    const std::vector<int>& assignment = SolveAssignment(cost_, assignment_);
    for (std::size_t t = 0; t < active_.size(); ++t) {
      int d = assignment[t];
      if (d >= 0 && cost_[t][d] <= 1.0 - config_.iou_threshold) {
        det_of_track_[t] = d;
        det_used_[d] = 1;
      }
    }
  }

  for (std::size_t t = 0; t < active_.size(); ++t) {
    if (det_of_track_[t] >= 0) {
      const detect::Detection& det = *dets_[det_of_track_[t]];
      active_[t].filter.Update(det.box);
      active_[t].boxes.push_back(TrackedBox::FromDetection(det));
      active_[t].time_since_update = 0;
    } else {
      ++active_[t].time_since_update;
    }
  }

  // Terminate stale tracks; the survivors keep their order.
  std::size_t kept = 0;
  for (std::size_t t = 0; t < active_.size(); ++t) {
    if (active_[t].time_since_update > config_.max_age) {
      Finalize(active_[t]);
    } else {
      if (kept != t) active_[kept] = std::move(active_[t]);
      ++kept;
    }
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());

  // Births from unmatched detections.
  for (std::size_t d = 0; d < dets_.size(); ++d) {
    if (det_used_[d]) continue;
    ActiveTrack track{next_id_++, KalmanBoxFilter(dets_[d]->box), {}, 0, {}};
    track.boxes.push_back(TrackedBox::FromDetection(*dets_[d]));
    active_.push_back(std::move(track));
  }

  dets_.clear();  // Its pointers point into `frame`.
  ++frames_observed_;
}

void StreamingSortTracker::Finish() {
  if (finished_) return;
  for (auto& track : active_) Finalize(track);
  active_.clear();
  finished_ = true;
}

std::int32_t StreamingSortTracker::min_active_first_frame() const {
  std::int32_t min_first = std::numeric_limits<std::int32_t>::max();
  for (const auto& track : active_) {
    if (!track.boxes.empty() && track.boxes.front().frame < min_first) {
      min_first = track.boxes.front().frame;
    }
  }
  return min_first;
}

TrackingResult SortTracker::Run(const detect::DetectionSequence& detections) {
  StreamingSortTracker stream(config_, detections.num_frames,
                              detections.frame_width, detections.frame_height,
                              detections.fps);
  for (const auto& frame : detections.frames) stream.Observe(frame);
  stream.Finish();
  // A copy, not a move: copying trims every track's boxes vector to its
  // size, and prepared videos hold their tracks for the whole run.
  return stream.result();
}

}  // namespace tmerge::track
