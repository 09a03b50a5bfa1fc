#include "tmerge/track/regression_tracker.h"

#include <set>

#include <gtest/gtest.h>

namespace tmerge::track {
namespace {

class SequenceBuilder {
 public:
  explicit SequenceBuilder(std::int32_t num_frames) {
    sequence_.num_frames = num_frames;
    sequence_.frame_width = 1920;
    sequence_.frame_height = 1080;
    sequence_.frames.resize(num_frames);
    for (std::int32_t f = 0; f < num_frames; ++f) {
      sequence_.frames[f].frame = f;
    }
  }

  void Add(std::int32_t frame, core::BoundingBox box, sim::GtObjectId gt_id,
           double confidence = 0.9) {
    detect::Detection detection;
    detection.detection_id = next_id_++;
    detection.frame = frame;
    detection.box = box;
    detection.confidence = confidence;
    detection.gt_id = gt_id;
    detection.noise_seed = next_id_;
    sequence_.frames[frame].detections.push_back(detection);
  }

  void AddMovingObject(sim::GtObjectId gt_id, std::int32_t first,
                       std::int32_t last, double x0, double y0,
                       double dx = 2.0, const std::set<std::int32_t>& gaps = {},
                       double confidence = 0.9) {
    for (std::int32_t f = first; f <= last; ++f) {
      if (gaps.contains(f)) continue;
      Add(f, {x0 + dx * (f - first), y0, 60.0, 140.0}, gt_id, confidence);
    }
  }

  const detect::DetectionSequence& sequence() const { return sequence_; }

 private:
  detect::DetectionSequence sequence_;
  std::uint64_t next_id_ = 1;
};

TEST(RegressionTrackerTest, SingleObjectSingleTrack) {
  SequenceBuilder builder(50);
  builder.AddMovingObject(0, 0, 49, 100, 100);
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  ASSERT_EQ(result.tracks.size(), 1u);
  EXPECT_EQ(result.tracks[0].size(), 50);
  EXPECT_EQ(result.tracker_name, "Tracktor");
}

TEST(RegressionTrackerTest, SlowMotionRequired) {
  // The regression step assumes small inter-frame motion: an object jumping
  // by more than its width every frame cannot be followed.
  SequenceBuilder builder(30);
  builder.AddMovingObject(0, 0, 29, 100, 100, /*dx=*/100.0);
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  // Either no tracks (spawn NMS + min_hits) or many short ones; never one
  // continuous track.
  for (const auto& track : result.tracks) {
    EXPECT_LT(track.size(), 30);
  }
}

TEST(RegressionTrackerTest, GapBeyondMaxAgeFragments) {
  // A 20-frame gap outlasts the tracker's max_age of 8.
  SequenceBuilder builder(100);
  std::set<std::int32_t> gap;
  for (std::int32_t f = 40; f < 60; ++f) gap.insert(f);
  builder.AddMovingObject(0, 0, 99, 100, 100, 2.0, gap);
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  EXPECT_EQ(result.tracks.size(), 2u);
}

TEST(RegressionTrackerTest, ShortGapSurvives) {
  // Within max_age the track's last box is still close enough (slow
  // motion) for the regression step to reclaim the object.
  SequenceBuilder builder(60);
  std::set<std::int32_t> gap{30, 31, 32};
  builder.AddMovingObject(0, 0, 59, 100, 100, 1.0, gap);
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  ASSERT_EQ(result.tracks.size(), 1u);
}

TEST(RegressionTrackerTest, LowConfidenceDetectionsDoNotSpawn) {
  SequenceBuilder builder(40);
  builder.AddMovingObject(0, 0, 39, 100, 100, 2.0, {}, /*confidence=*/0.4);
  RegressionTracker tracker;  // spawn_confidence = 0.5.
  TrackingResult result = tracker.Run(builder.sequence());
  EXPECT_TRUE(result.tracks.empty());
}

TEST(RegressionTrackerTest, SpawnNmsSuppresssesDuplicates) {
  // Two detections per frame at nearly the same place (duplicate detector
  // output): only one track must emerge.
  SequenceBuilder builder(30);
  for (std::int32_t f = 0; f < 30; ++f) {
    builder.Add(f, {100.0 + 2 * f, 100, 60, 140}, 0);
    builder.Add(f, {103.0 + 2 * f, 101, 60, 140}, 0, 0.85);
  }
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  ASSERT_EQ(result.tracks.size(), 1u);
}

TEST(RegressionTrackerTest, TwoObjectsKeepSeparateTracks) {
  SequenceBuilder builder(50);
  builder.AddMovingObject(0, 0, 49, 100, 100);
  builder.AddMovingObject(1, 0, 49, 100, 700);
  RegressionTracker tracker;
  TrackingResult result = tracker.Run(builder.sequence());
  ASSERT_EQ(result.tracks.size(), 2u);
  for (const auto& track : result.tracks) {
    for (const auto& box : track.boxes) {
      EXPECT_EQ(box.gt_id, track.boxes[0].gt_id);
    }
  }
}

}  // namespace
}  // namespace tmerge::track
