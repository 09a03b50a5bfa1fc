#include "tmerge/merge/window.h"

#include <algorithm>
#include <set>

#include "tmerge/core/status.h"

namespace tmerge::merge {
namespace {

/// Frames two tracks of one pair may coexist (see PairAdmissible).
constexpr std::int32_t kOverlapTolerance = 2;

}  // namespace

bool PairAdmissible(const track::Track& a, const track::Track& b) {
  if (a.id == b.id) return false;
  if (a.empty() || b.empty()) return false;
  // Temporal overlap in frames (inclusive span intersection).
  const std::int32_t overlap =
      std::min(a.last_frame(), b.last_frame()) -
      std::max(a.first_frame(), b.first_frame()) + 1;
  return overlap <= kOverlapTolerance;
}

IncrementalWindower::IncrementalWindower(const WindowConfig& config,
                                         std::int32_t num_frames)
    : single_window_(config.single_window),
      num_frames_(num_frames),
      length_(config.single_window ? num_frames : config.length) {
  if (num_frames_ <= 0) return;  // No frames, so no buckets.
  TMERGE_CHECK(length_ > 0);
  half_ = std::max<std::int32_t>(1, length_ / 2);
  num_buckets_ = single_window_ ? 1 : (num_frames_ + half_ - 1) / half_;
  buckets_.resize(num_buckets_);
}

void IncrementalWindower::AbsorbTracks(
    const std::vector<track::Track>& tracks) {
  for (std::size_t i = tracks_seen_; i < tracks.size(); ++i) {
    // A track retires before its bucket can close (closure waits for every
    // track born before the bucket's end), so this never lands in a closed
    // bucket.
    const std::int32_t bucket =
        single_window_ ? 0
                       : std::min(tracks[i].first_frame() / half_,
                                  num_buckets_ - 1);
    buckets_[bucket].push_back(i);
  }
  tracks_seen_ = tracks.size();
}

void IncrementalWindower::CloseUpTo(std::int32_t bucket_end,
                                    const std::vector<track::Track>& tracks,
                                    std::vector<WindowPairs>& closed) {
  for (std::int32_t c = next_window_; c < bucket_end; ++c) {
    const std::vector<std::size_t>& tc = buckets_[c];
    // P_c per Eq. (1): T_c x T_c, then T_c x T_{c-1}.
    std::set<metrics::TrackPairKey> pairs;
    for (std::size_t x = 0; x < tc.size(); ++x) {
      const track::Track& a = tracks[tc[x]];
      auto pair_with = [&](std::size_t j) {
        const track::Track& b = tracks[j];
        if (PairAdmissible(a, b)) {
          pairs.insert(metrics::MakePairKey(a.id, b.id));
        }
      };
      for (std::size_t y = x + 1; y < tc.size(); ++y) pair_with(tc[y]);
      if (c > 0) {
        for (std::size_t j : buckets_[c - 1]) pair_with(j);
      }
    }
    if (tc.empty() && pairs.empty()) continue;

    WindowPairs window;
    window.window_index = c;
    window.start_frame = single_window_ ? 0 : c * half_;
    window.end_frame =
        std::min(num_frames_ - 1, window.start_frame + length_ - 1);
    window.new_tracks = tc;
    window.pairs.assign(pairs.begin(), pairs.end());
    closed.push_back(std::move(window));
  }
  next_window_ = std::max(next_window_, bucket_end);
}

std::vector<WindowPairs> IncrementalWindower::Advance(
    const std::vector<track::Track>& tracks, std::int32_t frames_observed,
    std::int32_t min_active_first_frame) {
  std::vector<WindowPairs> closed;
  if (finished_ || num_buckets_ == 0) return closed;
  AbsorbTracks(tracks);
  watermark_ = std::max(watermark_, frames_observed);

  // Bucket c is final once neither births (watermark) nor extent growth
  // (active tracks born before its end) can change it. The last bucket
  // absorbs clamped late births, so it only closes at Finish; ditto
  // single-window mode.
  const std::int32_t frontier = std::min(watermark_, min_active_first_frame);
  const std::int32_t bucket_end =
      single_window_ ? 0 : std::min(frontier / half_, num_buckets_ - 1);
  CloseUpTo(bucket_end, tracks, closed);
  return closed;
}

std::vector<WindowPairs> IncrementalWindower::Finish(
    const std::vector<track::Track>& tracks) {
  std::vector<WindowPairs> closed;
  if (!finished_ && num_buckets_ > 0) {
    AbsorbTracks(tracks);
    CloseUpTo(num_buckets_, tracks, closed);
  }
  finished_ = true;
  return closed;
}

std::vector<WindowPairs> BuildWindows(const track::TrackingResult& result,
                                      const WindowConfig& config) {
  return IncrementalWindower(config, result.num_frames).Finish(result.tracks);
}

}  // namespace tmerge::merge
