#include "tmerge/merge/lcb.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "testing/merge_fixture.h"
#include "tmerge/core/rng.h"

namespace tmerge::merge {
namespace {

TEST(LcbTest, RespectsIterationBudget) {
  testing::MergeScenario scenario;
  LcbSelector lcb(500);
  reid::FeatureCache cache;
  SelectionResult result =
      lcb.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_EQ(result.box_pairs_evaluated, 500);
}

TEST(LcbTest, FindsPolyPairWithModestBudget) {
  testing::MergeScenario scenario;
  LcbSelector lcb(800);
  SelectorOptions options;
  options.k_fraction = 0.1;
  reid::FeatureCache cache;
  SelectionResult result =
      lcb.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(LcbTest, ConcentratesSamplingOnLowScorePairs) {
  // After the initial pass the arg-min rule should pull the promising pair
  // far more often than the average pair, so the number of distinct crops
  // touched stays well below everything BL would need.
  testing::MergeScenario scenario;
  LcbSelector lcb(2000);
  reid::FeatureCache cache;
  SelectionResult result =
      lcb.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LT(result.usage.TotalInferences(), scenario.result().TotalBoxes());
}

TEST(LcbTest, DeterministicForSeed) {
  testing::MergeScenario scenario;
  LcbSelector lcb(300);
  SelectorOptions options;
  options.seed = 99;
  reid::FeatureCache cache1, cache2;
  SelectionResult a =
      lcb.Select(scenario.context(), scenario.model(), cache1, options);
  SelectionResult b =
      lcb.Select(scenario.context(), scenario.model(), cache2, options);
  EXPECT_EQ(a.candidates, b.candidates);
}

TEST(LcbTest, LargerBatchesDoNotHelp) {
  // Each LCB iteration embeds at most two crops, so while routing them
  // through the batched path gains a constant factor, increasing the batch
  // size B gains nothing — the contrast with TMerge-B the paper draws in
  // SV-D ("increasing B has little benefit for LCB-B").
  testing::MergeScenario scenario;
  LcbSelector lcb(1000);
  SelectorOptions b2, b100;
  b2.batch_size = 2;
  b100.batch_size = 100;
  reid::FeatureCache cache1, cache2;
  double t_b2 = lcb.Select(scenario.context(), scenario.model(), cache1, b2)
                    .simulated_seconds;
  double t_b100 =
      lcb.Select(scenario.context(), scenario.model(), cache2, b100)
          .simulated_seconds;
  EXPECT_NEAR(t_b100, t_b2, 0.05 * t_b2 + 1e-9);
}

TEST(LcbTest, ExhaustsTinyUniverseGracefully) {
  // Budget far above the total number of BBox pairs: LCB must stop once
  // every pair is fully evaluated.
  testing::MergeScenario scenario(2);  // Three tracks, few pairs.
  LcbSelector lcb(1000000);
  reid::FeatureCache cache;
  SelectionResult result =
      lcb.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_EQ(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
}

TEST(LcbTest, EmptyContext) {
  testing::MergeScenario scenario;
  PairContext empty(scenario.result(), {});
  LcbSelector lcb(100);
  reid::FeatureCache cache;
  SelectionResult result = lcb.Select(empty, scenario.model(), cache, {});
  EXPECT_TRUE(result.candidates.empty());
}

TEST(LcbDeathTest, NonPositiveBudgetAborts) {
  EXPECT_DEATH(LcbSelector(0), "TMERGE_CHECK");
}

/// One arm as an LCB round sees it.
struct ArmState {
  bool live = true;
  std::int64_t pulls = 0;
  double mean = 0.0;
};

/// 2 ln(tau + 1), as LcbSelector computes it once per round.
double TwoLogTau(std::int64_t tau) {
  return 2.0 * std::log(static_cast<double>(tau + 1));
}

/// An arm's bound, computed as the per-arm scan below computes it.
double Bound(const ArmState& arm, double two_log_tau) {
  if (arm.pulls == 0) return -std::numeric_limits<double>::infinity();
  return arm.mean - std::sqrt(two_log_tau / static_cast<double>(arm.pulls));
}

/// The reference: LcbSelector's round before the pull-count buckets, one
/// bound per live arm and a strict `<`, so the lowest index wins a tie.
/// arms.size() when no arm is live.
std::size_t ScanBest(const std::vector<ArmState>& arms, double two_log_tau) {
  double best_bound = std::numeric_limits<double>::infinity();
  std::size_t best_pair = arms.size();
  for (std::size_t p = 0; p < arms.size(); ++p) {
    if (!arms[p].live) continue;
    // A pair whose initial pull failed still has zero pulls; its bound is
    // vacuously -inf.
    double bound = -std::numeric_limits<double>::infinity();
    if (arms[p].pulls > 0) {
      double radius =
          std::sqrt(two_log_tau / static_cast<double>(arms[p].pulls));
      bound = arms[p].mean - radius;
    }
    if (bound < best_bound) {
      best_bound = bound;
      best_pair = p;
    }
  }
  return best_pair;
}

TEST(PullCountBucketsTest, ChoosesWhatThePerArmScanChooses) {
  // Random rounds of 1 to 300 arms, pull counts 0 to 30 and tau up to
  // 10^4. Means come from a coarse grid and its nextafter neighbours, so
  // different means of one bucket round to one bound; half of them sit
  // their own radius above a grid point, so arms of different counts share
  // a bound too. Arms leave at random, as exhaustion removes them.
  core::Rng rng(0x1CB5EED);
  std::int64_t rounds = 0;
  // Rounds whose winner is not the head of its bucket, and rounds whose
  // winner ties an arm of a lower count: the head-only and bucket-order
  // rules would choose wrongly there.
  std::int64_t ties_within = 0;
  std::int64_t ties_across = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto num_arms = static_cast<std::size_t>(rng.UniformInt(1, 300));
    std::int64_t tau = rng.UniformInt(1, 10000);
    // Odd trials advance tau every round, as LCB does; even ones hold it,
    // so that means drawn against one radius keep their ties.
    const bool advance_tau = trial % 2 == 1;
    auto draw_mean = [&](std::int64_t pulls) {
      double mean = static_cast<double>(rng.UniformInt(0, 8)) / 8.0;
      if (pulls > 0 && rng.Bernoulli(0.5)) {
        mean += std::sqrt(TwoLogTau(tau) / static_cast<double>(pulls));
      }
      switch (rng.UniformInt(0, 2)) {
        case 0:
          return std::nextafter(mean, -1.0);
        case 1:
          return std::nextafter(mean, 100.0);
        default:
          return mean;
      }
    };
    std::vector<ArmState> arms(num_arms);
    internal::PullCountBuckets buckets;
    for (std::size_t p = 0; p < num_arms; ++p) {
      arms[p].pulls = rng.UniformInt(0, 30);
      arms[p].mean = draw_mean(arms[p].pulls);
      buckets.Insert(p, arms[p].pulls, arms[p].mean);
    }
    for (;;) {
      const double two_log_tau = TwoLogTau(tau);
      const std::size_t expected = ScanBest(arms, two_log_tau);
      ASSERT_EQ(buckets.empty(), expected == num_arms);
      if (expected == num_arms) break;
      const std::size_t chosen = buckets.PopBest(two_log_tau);
      ASSERT_EQ(chosen, expected) << "trial " << trial << ", tau " << tau;
      ++rounds;
      const double best = Bound(arms[chosen], two_log_tau);
      bool within = false, across = false;
      for (std::size_t p = 0; p < num_arms; ++p) {
        if (!arms[p].live || p == chosen) continue;
        if (Bound(arms[p], two_log_tau) != best) continue;
        if (arms[p].pulls < arms[chosen].pulls) across = true;
        if (arms[p].pulls == arms[chosen].pulls && arms[p].pulls > 0 &&
            arms[p].mean < arms[chosen].mean) {
          within = true;
        }
      }
      ties_within += within ? 1 : 0;
      ties_across += across ? 1 : 0;
      if (advance_tau) ++tau;
      ArmState& arm = arms[chosen];
      if (rng.Bernoulli(0.1)) {
        arm.live = false;  // Exhausted.
        continue;
      }
      // A failed pull leaves the count and the mean alone.
      if (rng.Bernoulli(0.9)) {
        ++arm.pulls;
        arm.mean = draw_mean(arm.pulls);
      }
      buckets.Insert(chosen, arm.pulls, arm.mean);
    }
  }
  EXPECT_GT(rounds, 400000);
  EXPECT_GT(ties_within, 500);
  EXPECT_GT(ties_across, 10000);
}

}  // namespace
}  // namespace tmerge::merge
