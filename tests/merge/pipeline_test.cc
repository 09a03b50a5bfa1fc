#include "tmerge/merge/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_util.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/metrics/id_metrics.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::merge {
namespace {

sim::SyntheticVideo SmallVideo(std::uint64_t seed = 7) {
  // Seed 7 is known to produce fragmentation with the full-length profile.
  return sim::GenerateVideo(
      sim::ProfileConfig(sim::DatasetProfile::kMot17Like), seed);
}

TEST(PrepareVideoTest, ProducesConsistentStructures) {
  sim::SyntheticVideo video = SmallVideo();
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  PreparedVideo prepared = PrepareVideo(video, tracker, config);
  EXPECT_EQ(prepared.video, &video);
  EXPECT_FALSE(prepared.tracking.tracks.empty());
  EXPECT_EQ(prepared.assignment.track_to_gt.size(),
            prepared.tracking.tracks.size());
  EXPECT_LE(prepared.windows.size(), 1u);
  // Truth pairs reference real TIDs.
  for (const auto& [a, b] : prepared.truth) {
    EXPECT_GE(prepared.tracking.IndexOfTrack(a), 0);
    EXPECT_GE(prepared.tracking.IndexOfTrack(b), 0);
    EXPECT_LT(a, b);
  }
}

TEST(PrepareDatasetTest, OnePreparedVideoPerInput) {
  sim::Dataset dataset = sim::MakeDataset(sim::DatasetProfile::kKittiLike, 2,
                                          5);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  std::vector<PreparedVideo> prepared =
      PrepareDataset(dataset, tracker, config);
  EXPECT_EQ(prepared.size(), 2u);
}

TEST(EvaluateSelectorTest, BaselineReachesHighRecall) {
  sim::SyntheticVideo video = SmallVideo();
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  PreparedVideo prepared = PrepareVideo(video, tracker, config);
  if (prepared.truth.empty()) GTEST_SKIP() << "no fragmentation this seed";

  BaselineSelector baseline;
  SelectorOptions options;
  options.k_fraction = 0.1;
  EvalResult eval = EvaluateSelector(prepared, baseline, options);
  EXPECT_GT(eval.rec, 0.7);
  EXPECT_GT(eval.fps, 0.0);
  EXPECT_EQ(eval.frames, video.num_frames);
  EXPECT_EQ(eval.hits + (eval.truth_pairs - eval.hits), eval.truth_pairs);
}

TEST(EvaluateSelectorTest, RecallCountsUnreachablePairsAsMisses) {
  // Shrink the window far below 2*Lmax: some fragment pairs span more than
  // two windows and cannot be found, capping REC below 1 (Fig. 9 logic).
  sim::SyntheticVideo video = SmallVideo();
  track::SortTracker tracker;
  PipelineConfig tiny;
  tiny.window.single_window = false;
  tiny.window.length = 60;
  PreparedVideo prepared = PrepareVideo(video, tracker, tiny);
  if (prepared.truth.empty()) GTEST_SKIP() << "no fragmentation this seed";
  std::int64_t reachable = 0;
  std::set<metrics::TrackPairKey> truth(prepared.truth.begin(),
                                        prepared.truth.end());
  for (const auto& window : prepared.windows) {
    for (const auto& pair : window.pairs) {
      if (truth.contains(pair)) ++reachable;
    }
  }
  BaselineSelector baseline;
  SelectorOptions options;
  options.k_fraction = 1.0;  // Take everything reachable.
  EvalResult eval = EvaluateSelector(prepared, baseline, options);
  EXPECT_EQ(eval.hits, reachable);
  EXPECT_LE(eval.rec, 1.0);
}

TEST(EvaluateDatasetTest, Aggregates) {
  sim::Dataset dataset = sim::MakeDataset(sim::DatasetProfile::kKittiLike, 2,
                                          31);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  std::vector<PreparedVideo> prepared =
      PrepareDataset(dataset, tracker, config);
  TMergeSelector selector;
  SelectorOptions options;
  EvalResult total = EvaluateDataset(prepared, selector, options);
  std::int64_t frames = 0;
  for (const auto& video : dataset.videos) frames += video.num_frames;
  EXPECT_EQ(total.frames, frames);
  EXPECT_GE(total.windows, 2);
}

TEST(EvaluateSelectorAveragedTest, RoundsCountersOfTheTrialRuns) {
  sim::Dataset dataset = sim::MakeDataset(sim::DatasetProfile::kKittiLike, 2,
                                          31);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  std::vector<PreparedVideo> prepared =
      PrepareDataset(dataset, tracker, config);
  SelectorOptions options;
  constexpr int kTrials = 3;
  auto tmerge_options = [](std::int64_t tau_max) {
    TMergeOptions tmerge;
    tmerge.tau_max = tau_max;
    return tmerge;
  };

  // A budget far below the box pairs makes the crops sampled, and so the
  // inference and cache counters, differ between trial seeds. Use the
  // first budget in 300-309 for which some counter's rounded mean differs
  // from its truncated mean; otherwise a truncating mean would pass too.
  // Which budget that is depends on the ReID realization.
  WorkTally expected;
  std::int64_t hits = 0;
  std::int64_t tau_max = 300;
  for (; tau_max < 310; ++tau_max) {
    TMergeSelector selector(tmerge_options(tau_max));
    WorkTally sum;
    hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      SelectorOptions trial = options;
      trial.seed = options.seed + 7919 * t;
      EvalResult eval = EvaluateDataset(prepared, selector, trial);
      sum.Add(eval);
      hits += eval.hits;
    }
    expected = sum;
    bool some_rounds_up = false;
    for (std::int64_t* counter : testing::TallyCounters(expected)) {
      const std::int64_t truncated = *counter / kTrials;
      *counter = std::llround(static_cast<double>(*counter) / kTrials);
      some_rounds_up |= *counter != truncated;
    }
    expected.simulated_seconds = sum.simulated_seconds / kTrials;
    if (some_rounds_up) break;
  }
  ASSERT_LT(tau_max, 310) << "no budget's counters round up";

  TMergeSelector selector(tmerge_options(tau_max));
  EvalResult averaged =
      EvaluateSelectorAveraged(prepared, selector, options, kTrials);
  EXPECT_TRUE(averaged.SameWork(expected));
  EXPECT_EQ(averaged.hits,
            std::llround(static_cast<double>(hits) / kTrials));
}

TEST(SelectAndMergeTest, OracleVerifiedMergeImprovesIdf1) {
  sim::SyntheticVideo video = SmallVideo(77);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  PreparedVideo prepared = PrepareVideo(video, tracker, config);
  if (prepared.truth.empty()) GTEST_SKIP() << "no fragmentation this seed";

  BaselineSelector baseline;
  SelectorOptions options;
  options.k_fraction = 0.1;
  track::TrackingResult merged =
      SelectAndMerge(prepared, baseline, options, /*oracle_verified=*/true);
  double before = metrics::ComputeIdMetrics(video, prepared.tracking).Idf1();
  double after = metrics::ComputeIdMetrics(video, merged).Idf1();
  EXPECT_GE(after, before);
  EXPECT_LE(merged.tracks.size(), prepared.tracking.tracks.size());
}

TEST(SelectAndMergeTest, UnverifiedMergeUsesAllCandidates) {
  sim::SyntheticVideo video = SmallVideo(78);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  PreparedVideo prepared = PrepareVideo(video, tracker, config);
  BaselineSelector baseline;
  SelectorOptions options;
  options.k_fraction = 0.05;
  track::TrackingResult unverified =
      SelectAndMerge(prepared, baseline, options, /*oracle_verified=*/false);
  track::TrackingResult verified =
      SelectAndMerge(prepared, baseline, options, /*oracle_verified=*/true);
  EXPECT_LE(unverified.tracks.size(), verified.tracks.size());
}

}  // namespace
}  // namespace tmerge::merge
