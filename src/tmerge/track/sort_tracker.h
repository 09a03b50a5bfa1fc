#ifndef TMERGE_TRACK_SORT_TRACKER_H_
#define TMERGE_TRACK_SORT_TRACKER_H_

#include <string>
#include <vector>

#include "tmerge/track/hungarian.h"
#include "tmerge/track/kalman_filter.h"
#include "tmerge/track/track.h"

namespace tmerge::track {

/// Parameters of the SORT tracker (Bewley et al., ICIP 2016).
struct SortConfig {
  /// Minimum IoU between a Kalman prediction and a detection to accept the
  /// Hungarian match.
  double iou_threshold = 0.3;
  /// Frames a track survives without a matched detection before it is
  /// terminated. Occlusion gaps longer than this fragment the track —
  /// the source of polyonymous tracks.
  std::int32_t max_age = 9;
  /// Minimum associated boxes for a track to be emitted (suppresses
  /// false-positive-born tracks).
  std::int32_t min_hits = 5;
  /// Detections below this confidence are ignored.
  double min_confidence = 0.35;
};

/// Incremental SORT: the frame loop of SortTracker::Run exposed as an
/// explicit state machine for the streaming ingestion service
/// (tmerge::stream). Feed frames in order with Observe; call Finish once
/// the stream ends. `result()` grows as tracks retire, in retirement
/// order — SortTracker::Run is implemented as Observe-all + Finish over
/// this class, so the streamed track list is bit-identical to the batch
/// tracker's by construction (pinned by SortTrackerTest.StreamingMatchesBatch).
///
/// Concurrency: thread-confined. One camera's stream owns one instance;
/// the stream service serializes Observe/Finish per camera.
class StreamingSortTracker {
 public:
  /// `num_frames`/geometry/fps describe the declared stream extent (the
  /// fields a DetectionSequence header carries); they are copied into the
  /// result so downstream windowing sees the same video metadata as the
  /// batch path.
  StreamingSortTracker(const SortConfig& config, std::int32_t num_frames,
                       double frame_width, double frame_height, double fps);

  /// Consumes the next frame's detections. Frames must arrive in order;
  /// gaps are the caller's responsibility (pass an empty DetectionFrame
  /// for a frame with no detections).
  void Observe(const detect::DetectionFrame& frame);

  /// Ends the stream: every still-active track is finalized. Idempotent.
  void Finish();

  /// Tracks finalized so far, in retirement order (identical to the order
  /// SortTracker::Run emits). Stable across Observe calls only in the
  /// sense of content: the vector may reallocate as it grows.
  const TrackingResult& result() const { return result_; }

  /// Number of tracks currently being followed (not yet retired).
  std::size_t active_tracks() const { return active_.size(); }

  /// Smallest first_frame over still-active tracks, or INT32_MAX when no
  /// track is active. Everything born strictly before this bound has been
  /// finalized — the watermark the incremental windower closes on.
  std::int32_t min_active_first_frame() const;

  /// Frames observed so far (last observed frame + 1); 0 before the first
  /// Observe.
  std::int32_t frames_observed() const { return frames_observed_; }

  bool finished() const { return finished_; }

 private:
  struct ActiveTrack {
    TrackId id;
    KalmanBoxFilter filter;
    std::vector<TrackedBox> boxes;
    std::int32_t time_since_update = 0;
    core::BoundingBox predicted;
  };

  void Finalize(ActiveTrack& track);

  SortConfig config_;
  TrackingResult result_;
  std::vector<ActiveTrack> active_;
  // Per-frame scratch, kept so that Observe reuses its storage: the
  // confident detections (empty between calls), each track's matched
  // detection (-1 for none), which detections were matched, the 1 - IoU
  // cost rows and the assignment solver's buffers.
  std::vector<const detect::Detection*> dets_;
  std::vector<int> det_of_track_;
  std::vector<char> det_used_;
  std::vector<std::vector<double>> cost_;
  AssignmentWorkspace assignment_;
  TrackId next_id_ = 1;
  std::int32_t frames_observed_ = 0;
  bool finished_ = false;
};

/// SORT: Kalman-filter motion prediction + IoU cost + Hungarian assignment.
/// Purely motion-based, so any detection gap longer than `max_age` splits
/// the track; of the three trackers in this repo it fragments the most,
/// mirroring its role in the paper's Fig. 11.
class SortTracker : public Tracker {
 public:
  explicit SortTracker(const SortConfig& config = SortConfig())
      : config_(config) {}

  TrackingResult Run(const detect::DetectionSequence& detections) override;

  std::string name() const override { return "SORT"; }

  const SortConfig& config() const { return config_; }

 private:
  SortConfig config_;
};

}  // namespace tmerge::track

#endif  // TMERGE_TRACK_SORT_TRACKER_H_
