// IncrementalWindower vs merge::BuildWindows: streaming closure over a
// frame-by-frame tracker must reproduce the batch window list element for
// element — the foundation of the service's batch/stream equivalence.

#include "tmerge/stream/incremental_windower.h"

#include <gtest/gtest.h>

#include <vector>

#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/window.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/sim/video_generator.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::stream {
namespace {

detect::DetectionSequence MakeDetections(std::uint64_t seed) {
  sim::VideoConfig video_config =
      sim::ProfileConfig(sim::DatasetProfile::kKittiLike);
  sim::SyntheticVideo video = sim::GenerateVideo(video_config, seed);
  return detect::SimulateDetections(video, detect::DetectorConfig{}, seed);
}

/// Streams `detections` through a fresh tracker + windower and returns the
/// concatenation of every Advance closure plus the Finish tail, along with
/// how many windows closed before Finish.
std::pair<std::vector<merge::WindowPairs>, std::size_t> StreamWindows(
    const detect::DetectionSequence& detections,
    const merge::WindowConfig& config) {
  track::StreamingSortTracker tracker(
      track::SortConfig{}, detections.num_frames, detections.frame_width,
      detections.frame_height, detections.fps);
  IncrementalWindower windower(config, detections.num_frames);
  std::vector<merge::WindowPairs> streamed;
  for (const auto& frame : detections.frames) {
    tracker.Observe(frame);
    std::vector<merge::WindowPairs> closed =
        windower.Advance(tracker.result().tracks, tracker.frames_observed(),
                         tracker.min_active_first_frame());
    for (auto& window : closed) streamed.push_back(std::move(window));
  }
  std::size_t closed_early = streamed.size();
  tracker.Finish();
  std::vector<merge::WindowPairs> tail =
      windower.Finish(tracker.result().tracks);
  for (auto& window : tail) streamed.push_back(std::move(window));
  EXPECT_TRUE(windower.finished());
  EXPECT_EQ(windower.open_windows(), 0);
  return {std::move(streamed), closed_early};
}

void ExpectSameWindows(const std::vector<merge::WindowPairs>& streamed,
                       const std::vector<merge::WindowPairs>& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(streamed[i].window_index, batch[i].window_index);
    EXPECT_EQ(streamed[i].start_frame, batch[i].start_frame);
    EXPECT_EQ(streamed[i].end_frame, batch[i].end_frame);
    EXPECT_EQ(streamed[i].new_tracks, batch[i].new_tracks);
    EXPECT_EQ(streamed[i].pairs, batch[i].pairs);
  }
}

TEST(IncrementalWindowerTest, MatchesBatchWindows) {
  detect::DetectionSequence detections = MakeDetections(/*seed=*/5);
  // Short windows so the video spans many buckets and mid-stream closure
  // actually happens.
  for (std::int32_t length : {60, 150, 400}) {
    SCOPED_TRACE(length);
    merge::WindowConfig config;
    config.length = length;
    auto [streamed, closed_early] = StreamWindows(detections, config);

    track::SortTracker batch_tracker;
    track::TrackingResult result = batch_tracker.Run(detections);
    ExpectSameWindows(streamed, merge::BuildWindows(result, config));
    // The point of incremental closure: most windows must not wait for the
    // end of the stream.
    if (streamed.size() > 2) {
      EXPECT_GT(closed_early, 0u);
    }
  }
}

TEST(IncrementalWindowerTest, MatchesBatchInSingleWindowMode) {
  detect::DetectionSequence detections = MakeDetections(/*seed=*/9);
  merge::WindowConfig config;
  config.single_window = true;
  auto [streamed, closed_early] = StreamWindows(detections, config);

  track::SortTracker batch_tracker;
  track::TrackingResult result = batch_tracker.Run(detections);
  ExpectSameWindows(streamed, merge::BuildWindows(result, config));
  // The single window absorbs late births, so it only closes at Finish.
  EXPECT_EQ(closed_early, 0u);
}

TEST(IncrementalWindowerTest, EmptyStreamYieldsNoWindows) {
  IncrementalWindower windower(merge::WindowConfig{}, /*num_frames=*/0);
  std::vector<track::Track> no_tracks;
  EXPECT_TRUE(windower.Advance(no_tracks, 0, 0).empty());
  EXPECT_TRUE(windower.Finish(no_tracks).empty());
  EXPECT_EQ(windower.open_windows(), 0);
}

TEST(IncrementalWindowerTest, TracklessStreamMatchesBatchEarlyReturn) {
  // Frames but no detections: BuildWindows returns an empty list for an
  // empty tracking result, and so must the incremental path.
  detect::DetectionSequence detections;
  detections.num_frames = 500;
  detections.frame_width = 1920;
  detections.frame_height = 1080;
  detections.frames.resize(500);
  for (std::int32_t f = 0; f < 500; ++f) detections.frames[f].frame = f;

  merge::WindowConfig config;
  config.length = 100;
  auto [streamed, closed_early] = StreamWindows(detections, config);
  EXPECT_TRUE(streamed.empty());

  track::SortTracker batch_tracker;
  track::TrackingResult result = batch_tracker.Run(detections);
  EXPECT_TRUE(merge::BuildWindows(result, config).empty());
}

TEST(IncrementalWindowerTest, FinishIsIdempotent) {
  detect::DetectionSequence detections = MakeDetections(/*seed=*/3);
  merge::WindowConfig config;
  config.length = 100;
  track::StreamingSortTracker tracker(
      track::SortConfig{}, detections.num_frames, detections.frame_width,
      detections.frame_height, detections.fps);
  IncrementalWindower windower(config, detections.num_frames);
  for (const auto& frame : detections.frames) tracker.Observe(frame);
  tracker.Finish();
  EXPECT_FALSE(windower.Finish(tracker.result().tracks).empty());
  EXPECT_TRUE(windower.Finish(tracker.result().tracks).empty());
  // Advance after Finish is a no-op as well.
  EXPECT_TRUE(windower
                  .Advance(tracker.result().tracks,
                           tracker.frames_observed(),
                           tracker.min_active_first_frame())
                  .empty());
}

}  // namespace
}  // namespace tmerge::stream
