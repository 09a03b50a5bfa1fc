#ifndef TMERGE_TESTS_TESTING_TEST_UTIL_H_
#define TMERGE_TESTS_TESTING_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "tmerge/core/geometry.h"
#include "tmerge/merge/selector.h"
#include "tmerge/reid/distance_kernels.h"
#include "tmerge/sim/world.h"
#include "tmerge/track/track.h"

namespace tmerge::testing {

/// Restores the distance-kernel dispatch mode on scope exit, so a test
/// that toggles reid::kernels::SetUseScalarKernels cannot leak its mode
/// into the next one.
class ScopedKernelMode {
 public:
  ScopedKernelMode() : saved_(reid::kernels::UseScalarKernels()) {}
  ~ScopedKernelMode() { reid::kernels::SetUseScalarKernels(saved_); }

 private:
  bool saved_;
};

/// Every integer counter of `tally`, in declaration order. The exact-arity
/// bindings stop compiling when WorkTally or UsageStats gains a field, so
/// a field-by-field check over this list cannot silently skip it.
inline std::vector<std::int64_t*> TallyCounters(merge::WorkTally& tally) {
  auto& [usage, simulated_seconds, windows, pairs, box_pairs_evaluated,
         failed_pulls, reid_retries, degraded_windows] = tally;
  auto& [single_inferences, batched_crops, batch_calls, distance_evals,
         cache_hits, failed_embeds, gate_accepted, gate_rejected,
         gate_ambiguous] = usage;
  (void)simulated_seconds;  // The one floating-point field, checked apart.
  return {&single_inferences, &batched_crops, &batch_calls, &distance_evals,
          &cache_hits,        &failed_embeds, &gate_accepted, &gate_rejected,
          &gate_ambiguous,    &windows,       &pairs, &box_pairs_evaluated,
          &failed_pulls,      &reid_retries,  &degraded_windows};
}

/// Builds a track with `count` boxes on consecutive frames starting at
/// `first_frame`, moving right by `dx` per frame, all attributed to GT
/// object `gt_id`. Detection ids are derived from (id, frame) so they are
/// unique across tracks built with distinct ids.
inline track::Track MakeTrack(track::TrackId id, std::int32_t first_frame,
                              std::int32_t count, sim::GtObjectId gt_id,
                              double x0 = 100.0, double y0 = 100.0,
                              double dx = 2.0) {
  track::Track track;
  track.id = id;
  for (std::int32_t i = 0; i < count; ++i) {
    track::TrackedBox box;
    box.detection_id =
        (static_cast<std::uint64_t>(id) << 32) | static_cast<std::uint32_t>(first_frame + i);
    box.frame = first_frame + i;
    box.box = {x0 + dx * i, y0, 50.0, 120.0};
    box.confidence = 0.9;
    box.gt_id = gt_id;
    box.visibility = 1.0;
    box.noise_seed = box.detection_id * 0x9E37ULL + 11;
    track.boxes.push_back(box);
  }
  return track;
}

/// Builds a TrackingResult around the given tracks.
inline track::TrackingResult MakeResult(std::vector<track::Track> tracks,
                                        std::int32_t num_frames = 1000) {
  track::TrackingResult result;
  result.tracker_name = "test";
  result.num_frames = num_frames;
  result.frame_width = 1920.0;
  result.frame_height = 1080.0;
  result.tracks = std::move(tracks);
  return result;
}

/// Builds a minimal ground-truth video containing the given GT tracks. Each
/// entry is (gt_id, first_frame, count); boxes move right from distinct
/// lanes so tracks do not overlap spatially.
inline sim::SyntheticVideo MakeGtVideo(
    const std::vector<std::tuple<sim::GtObjectId, std::int32_t, std::int32_t>>&
        specs,
    std::int32_t num_frames = 1000) {
  sim::SyntheticVideo video;
  video.name = "gt_test";
  video.num_frames = num_frames;
  video.frame_width = 1920.0;
  video.frame_height = 1080.0;
  for (const auto& [gt_id, first, count] : specs) {
    sim::GroundTruthTrack track;
    track.id = gt_id;
    // Well-separated appearances: orthogonal spikes.
    track.appearance = sim::AppearanceVector(8, 0.0);
    track.appearance[gt_id % 8] = 3.0 + 0.2 * (gt_id / 8);
    for (std::int32_t i = 0; i < count; ++i) {
      sim::GroundTruthBox box;
      box.frame = first + i;
      box.box = {100.0 + 2.0 * i, 100.0 + 180.0 * (gt_id % 5), 50.0, 120.0};
      track.boxes.push_back(box);
    }
    video.tracks.push_back(std::move(track));
  }
  return video;
}

}  // namespace tmerge::testing

#endif  // TMERGE_TESTS_TESTING_TEST_UTIL_H_
