#ifndef TMERGE_MERGE_WINDOW_H_
#define TMERGE_MERGE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "tmerge/metrics/gt_matcher.h"
#include "tmerge/track/track.h"

namespace tmerge::merge {

/// Windowing parameters (paper §II).
struct WindowConfig {
  /// Window length L in frames. The paper requires L >= 2 * L_max so no GT
  /// track spans more than two half-overlapping windows.
  std::int32_t length = 2000;
  /// Treat the whole video as a single window (the paper's MOT-17/KITTI
  /// evaluation mode). When set, `length` is ignored.
  bool single_window = false;
};

/// The pair set P_c of one window W_c.
struct WindowPairs {
  std::int32_t window_index = 0;
  std::int32_t start_frame = 0;  ///< First frame of W_c (inclusive).
  std::int32_t end_frame = 0;    ///< Last frame of W_c (inclusive).
  /// Indices (into TrackingResult::tracks) of T_c: tracks born in the
  /// first L/2 frames of this window.
  std::vector<std::size_t> new_tracks;
  /// P_c as canonical TID pairs (paper Eq. 1, minus physically impossible
  /// coexisting pairs — see PairAdmissible).
  std::vector<metrics::TrackPairKey> pairs;
};

/// Returns true if tracks `a` and `b` may form a pair: two distinct,
/// nonempty tracks that coexist in at most two frames. Tracks that coexist
/// longer cannot be fragments of one GT track (an object cannot be in two
/// places at once); the two-frame tolerance absorbs duplicate boxes at
/// fragmentation boundaries.
bool PairAdmissible(const track::Track& a, const track::Track& b);

/// The windower of paper §II: buckets tracks by the half-window stride
/// their first frame falls in (late births clamp into the last bucket; one
/// bucket in single-window mode), and builds window c's pair set per
/// Eq. (1) from bucket c against itself and bucket c-1. Empty windows (no
/// new tracks, no pairs) are dropped, so each unordered pair appears in at
/// most one window.
///
/// Batch and stream run the same code: a stream calls Advance() as frames
/// arrive and Finish() at its end, while BuildWindows is Finish() alone
/// over a finished track list. Admissibility depends on both tracks'
/// *final* extents, so window c's pair set is final exactly when
///
///   1. the frame watermark has passed the end of stride c (no track can
///      be born into bucket c anymore), and
///   2. every track born before the end of stride c has retired (its
///      extent cannot grow, so admissibility checks are final).
///
/// Advance() closes every window whose closure condition newly holds;
/// Finish() closes the rest (the stream-end force-flush). The windows a
/// stream closes, concatenated, equal one Finish() over its final track
/// list (pinned by IncrementalWindowerTest.MatchesBatchWindows).
///
/// Thread-confined like the streaming tracker it consumes.
class IncrementalWindower {
 public:
  /// `num_frames` is the declared stream length (it fixes the bucket count
  /// and clamps the last bucket). A stream with no frames has no windows.
  IncrementalWindower(const WindowConfig& config, std::int32_t num_frames);

  /// Registers newly finalized tracks and the new frame watermark
  /// (`frames_observed` frames seen, `min_active_first_frame` the oldest
  /// birth frame still active — INT32_MAX when none). `tracks` is the
  /// camera's full finalized track list in retirement order; only indices
  /// >= the count seen so far are consumed. Returns the windows that
  /// became closable, in window order.
  std::vector<WindowPairs> Advance(const std::vector<track::Track>& tracks,
                                   std::int32_t frames_observed,
                                   std::int32_t min_active_first_frame);

  /// Stream end: every remaining window closes. Idempotent.
  std::vector<WindowPairs> Finish(const std::vector<track::Track>& tracks);

  /// Windows that have not closed yet (the "open windows" gauge of the
  /// stream service).
  std::int32_t open_windows() const { return num_buckets_ - next_window_; }

  bool finished() const { return finished_; }

 private:
  /// Consumes tracks [tracks_seen_, tracks.size()) into buckets.
  void AbsorbTracks(const std::vector<track::Track>& tracks);

  /// Closes windows [next_window_, bucket_end), appending non-empty ones
  /// to `closed`.
  void CloseUpTo(std::int32_t bucket_end,
                 const std::vector<track::Track>& tracks,
                 std::vector<WindowPairs>& closed);

  bool single_window_;
  std::int32_t num_frames_;
  std::int32_t length_;
  std::int32_t half_ = 1;
  std::int32_t num_buckets_ = 0;
  /// Bucket c holds T_c: indices into the finalized track list, in
  /// retirement order.
  std::vector<std::vector<std::size_t>> buckets_;
  std::size_t tracks_seen_ = 0;
  std::int32_t next_window_ = 0;
  std::int32_t watermark_ = 0;
  bool finished_ = false;
};

/// Partitions a video's tracking result into half-overlapping windows and
/// builds each window's pair set per Eq. (1): one IncrementalWindower
/// Finish() over the whole track list.
std::vector<WindowPairs> BuildWindows(const track::TrackingResult& result,
                                      const WindowConfig& config);

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_WINDOW_H_
