#include "tmerge/merge/selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <numeric>
#include <vector>

#include "testing/test_util.h"
#include "tmerge/core/rng.h"
#include "tmerge/merge/pipeline.h"

namespace tmerge::merge {
namespace {

// A defaulted public operator== on WorkTally would let two EvalResults
// compare equal while ignoring rec and candidates; SameWork is the only
// comparison.
static_assert(!std::equality_comparable<EvalResult>);

using testing::TallyCounters;

/// A tally whose fields all differ: counter i holds scale * (i + 1).
WorkTally DistinctTally(std::int64_t scale) {
  WorkTally tally;
  std::vector<std::int64_t*> counters = TallyCounters(tally);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    *counters[i] = scale * static_cast<std::int64_t>(i + 1);
  }
  tally.simulated_seconds = 0.5 * static_cast<double>(scale);
  return tally;
}

void ExpectSameFields(WorkTally actual, WorkTally expected) {
  std::vector<std::int64_t*> got = TallyCounters(actual);
  std::vector<std::int64_t*> want = TallyCounters(expected);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(*got[i], *want[i]) << "counter " << i;
  }
  EXPECT_EQ(actual.simulated_seconds, expected.simulated_seconds);
}

TEST(WorkTallyTest, AddSumsEveryField) {
  WorkTally total = DistinctTally(3);
  total.Add(DistinctTally(100));
  ExpectSameFields(total, DistinctTally(103));
}

TEST(WorkTallyTest, MeanOverRoundsEveryFieldToNearest) {
  // Counter i sums to 4 * (i + 1) + r with r cycling 0..3: the mean over
  // four trials is exact for r = 0, rounds down for r = 1 and up for
  // r >= 2.
  WorkTally tally = DistinctTally(4);
  WorkTally expected = DistinctTally(1);
  std::vector<std::int64_t*> sums = TallyCounters(tally);
  std::vector<std::int64_t*> means = TallyCounters(expected);
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const auto remainder = static_cast<std::int64_t>(i % 4);
    *sums[i] += remainder;
    if (remainder >= 2) ++*means[i];
  }
  tally.MeanOver(4);
  ExpectSameFields(tally, expected);
}

TEST(WorkTallyTest, AddWindowFoldsEverySelectionField) {
  SelectionResult selection;
  selection.usage = DistinctTally(10).usage;
  selection.simulated_seconds = 0.25;
  selection.box_pairs_evaluated = 7;
  selection.failed_pulls = 5;
  selection.reid_retries = 3;
  selection.degraded = true;

  WorkTally expected;
  expected.usage = selection.usage;
  expected.simulated_seconds = 0.25;
  expected.windows = 1;
  expected.pairs = 11;
  expected.box_pairs_evaluated = 7;
  expected.failed_pulls = 5;
  expected.reid_retries = 3;
  expected.degraded_windows = 1;

  WorkTally tally;
  tally.AddWindow(selection, /*window_pairs=*/11);
  ExpectSameFields(tally, expected);

  // A healthy window counts as a window but not as a degraded one.
  selection.degraded = false;
  tally.AddWindow(selection, /*window_pairs=*/11);
  EXPECT_EQ(tally.windows, 2);
  EXPECT_EQ(tally.degraded_windows, 1);
}

TEST(WorkTallyTest, SameWorkSeesEveryField) {
  const WorkTally reference = DistinctTally(5);
  EXPECT_TRUE(reference.SameWork(DistinctTally(5)));
  WorkTally changed = reference;
  const std::size_t num_counters = TallyCounters(changed).size();
  for (std::size_t i = 0; i < num_counters; ++i) {
    changed = reference;
    ++*TallyCounters(changed)[i];
    EXPECT_FALSE(reference.SameWork(changed)) << "counter " << i;
  }
  changed = reference;
  changed.simulated_seconds += 1e-9;
  EXPECT_FALSE(reference.SameWork(changed));
}

TEST(TopKCountTest, CeilSemantics) {
  EXPECT_EQ(TopKCount(0.05, 100), 5u);
  EXPECT_EQ(TopKCount(0.05, 101), 6u);  // ceil(5.05).
  EXPECT_EQ(TopKCount(0.05, 10), 1u);   // ceil(0.5).
  EXPECT_EQ(TopKCount(0.0, 100), 0u);
  EXPECT_EQ(TopKCount(1.0, 7), 7u);
}

TEST(TopKCountTest, ClampedToUniverse) {
  EXPECT_EQ(TopKCount(1.0, 3), 3u);
  EXPECT_EQ(TopKCount(0.5, 0), 0u);
}

TEST(TopKCountDeathTest, OutOfRangeKAborts) {
  EXPECT_DEATH(TopKCount(-0.1, 10), "TMERGE_CHECK");
  EXPECT_DEATH(TopKCount(1.1, 10), "TMERGE_CHECK");
}

class TopKByScoreTest : public ::testing::Test {
 protected:
  TopKByScoreTest()
      : result_(testing::MakeResult({testing::MakeTrack(1, 0, 5, 0),
                                     testing::MakeTrack(2, 10, 5, 0),
                                     testing::MakeTrack(3, 20, 5, 1),
                                     testing::MakeTrack(4, 30, 5, 2)})),
        context_(result_, {{1, 2}, {1, 3}, {1, 4}}) {}

  track::TrackingResult result_;
  PairContext context_;
};

TEST_F(TopKByScoreTest, PicksLowestScores) {
  std::vector<double> scores{0.9, 0.1, 0.5};
  auto top = internal::TopKByScore(context_, scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (metrics::TrackPairKey{1, 3}));
  EXPECT_EQ(top[1], (metrics::TrackPairKey{1, 4}));
}

TEST_F(TopKByScoreTest, DeterministicTieBreak) {
  std::vector<double> scores{0.5, 0.5, 0.5};
  auto top = internal::TopKByScore(context_, scores, 2);
  EXPECT_EQ(top[0], (metrics::TrackPairKey{1, 2}));
  EXPECT_EQ(top[1], (metrics::TrackPairKey{1, 3}));
}

TEST_F(TopKByScoreTest, KLargerThanUniverseClamped) {
  std::vector<double> scores{0.1, 0.2, 0.3};
  auto top = internal::TopKByScore(context_, scores, 99);
  EXPECT_EQ(top.size(), 3u);
}

TEST_F(TopKByScoreTest, ZeroKEmpty) {
  std::vector<double> scores{0.1, 0.2, 0.3};
  EXPECT_TRUE(internal::TopKByScore(context_, scores, 0).empty());
}

// Pins the partial-selection implementation (nth_element + prefix sort) to
// the full-sort definition element for element, across every k and with
// heavy score ties — the case where an unstable partial selection would
// diverge if the comparator were not a strict total order.
TEST(TopKByScorePinningTest, TopKMatchesFullSort) {
  constexpr std::size_t kTracks = 40;
  std::vector<track::Track> tracks;
  tracks.reserve(kTracks);
  for (std::size_t t = 0; t < kTracks; ++t) {
    tracks.push_back(testing::MakeTrack(static_cast<track::TrackId>(t + 1),
                                        static_cast<std::int32_t>(10 * t), 3,
                                        0));
  }
  track::TrackingResult result = testing::MakeResult(std::move(tracks));
  std::vector<metrics::TrackPairKey> pairs;
  for (std::size_t t = 1; t < kTracks; ++t) {
    pairs.push_back(metrics::MakePairKey(1, static_cast<track::TrackId>(t + 1)));
  }
  PairContext context(result, pairs);

  // Few distinct values => many ties; the index tie-break does the work.
  core::Rng rng(1234);
  std::vector<double> scores(context.num_pairs());
  for (double& s : scores) s = 0.1 * static_cast<double>(rng.UniformInt(0, 4));

  for (std::size_t k = 0; k <= context.num_pairs() + 1; ++k) {
    // The full-sort definition, computed independently of TopKByScore.
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (scores[a] != scores[b]) return scores[a] < scores[b];
      return a < b;
    });
    std::vector<metrics::TrackPairKey> expected;
    for (std::size_t i = 0; i < std::min(k, order.size()); ++i) {
      expected.push_back(context.pair(order[i]));
    }
    EXPECT_EQ(internal::TopKByScore(context, scores, k), expected) << k;
  }
}

}  // namespace
}  // namespace tmerge::merge
