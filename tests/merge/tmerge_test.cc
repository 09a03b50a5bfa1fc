#include "tmerge/merge/tmerge.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "testing/merge_fixture.h"

namespace tmerge::merge {
namespace {

TEST(TMergeTest, RespectsIterationBudget) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 400;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LE(result.box_pairs_evaluated, 400);
}

TEST(TMergeTest, FindsPolyPairQuickly) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 600;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TMergeTest, ConcentratesOnPromisingPairs) {
  // Thompson sampling must touch fewer crops than exist: the point of the
  // algorithm is sub-BL inference counts.
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 2000;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LT(result.usage.TotalInferences(), scenario.result().TotalBoxes());
}

TEST(TMergeTest, DeterministicForSeed) {
  testing::MergeScenario scenario;
  TMergeSelector selector;
  SelectorOptions options;
  options.seed = 4242;
  reid::FeatureCache cache1, cache2;
  SelectionResult a =
      selector.Select(scenario.context(), scenario.model(), cache1, options);
  SelectionResult b =
      selector.Select(scenario.context(), scenario.model(), cache2, options);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.box_pairs_evaluated, b.box_pairs_evaluated);
}

TEST(TMergeTest, SeedsChangeSamplingButNotTheWinner) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1500;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    options.seed = seed;
    reid::FeatureCache cache;
    SelectionResult result =
        selector.Select(scenario.context(), scenario.model(), cache, options);
    bool found = false;
    for (const auto& pair : result.candidates) {
      if (pair == scenario.truth_pair()) found = true;
    }
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

// How many of seeds [0, num_seeds) put the scenario's truth pair among
// the candidates at k_fraction 0.05.
int TruthPairHits(const testing::MergeScenario& scenario,
                  const TMergeOptions& tmerge_options,
                  std::uint64_t num_seeds) {
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.05;
  int hits = 0;
  for (std::uint64_t seed = 0; seed < num_seeds; ++seed) {
    options.seed = seed;
    reid::FeatureCache cache;
    for (const auto& pair :
         selector.Select(scenario.context(), scenario.model(), cache, options)
             .candidates) {
      if (pair == scenario.truth_pair()) ++hits;
    }
  }
  return hits;
}

TEST(TMergeTest, BetaInitBiasesEarlySampling) {
  // With BetaInit, spatially close pairs (the fragment pair is closest)
  // are found at tiny budgets more reliably than without. The budget is
  // where the prior still decides which pairs get pulled: at tau = 120
  // both arms find the truth pair about 99 % of the time, and the
  // comparison cannot tell them apart.
  testing::MergeScenario scenario;
  TMergeOptions with_init;
  with_init.tau_max = 15;
  with_init.thr_s = 400.0;
  TMergeOptions without_init = with_init;
  without_init.use_beta_init = false;
  EXPECT_GT(TruthPairHits(scenario, with_init, 200),
            TruthPairHits(scenario, without_init, 200));
}

TEST(TMergeTest, BetaInitHitRateMatchesReference) {
  // Selector-level equivalence check for the Thompson draw: any correct
  // Beta sampler must find the truth pair at the reference rate. 698 of
  // 1000 seeds is the rate with Gamma normals drawn by the standard
  // library's polar method; the band is 4 binomial standard errors.
  testing::MergeScenario scenario;
  TMergeOptions with_init;
  with_init.tau_max = 20;
  with_init.thr_s = 400.0;
  EXPECT_NEAR(TruthPairHits(scenario, with_init, 1000), 698, 58);
}

TEST(TMergeTest, UlbPrunesWork) {
  // With ULB on, the same budget evaluates no more (usually fewer) crops
  // because decided pairs stop being sampled.
  testing::MergeScenario scenario;
  SelectorOptions options;
  TMergeOptions with_ulb;
  with_ulb.tau_max = 3000;
  TMergeOptions without_ulb = with_ulb;
  without_ulb.use_ulb = false;
  TMergeSelector a(with_ulb), b(without_ulb);
  reid::FeatureCache cache1, cache2;
  SelectionResult with_result =
      a.Select(scenario.context(), scenario.model(), cache1, options);
  SelectionResult without_result =
      b.Select(scenario.context(), scenario.model(), cache2, options);
  // Both find the pair; ULB must not hurt the result.
  bool found = false;
  for (const auto& pair : with_result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_LE(with_result.box_pairs_evaluated,
            without_result.box_pairs_evaluated);
}

TEST(TMergeTest, BatchedRunsFewerRoundsSameBudget) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000;
  TMergeSelector selector(tmerge_options);
  SelectorOptions plain;
  SelectorOptions batched;
  batched.batch_size = 50;
  reid::FeatureCache cache1, cache2;
  SelectionResult r_plain =
      selector.Select(scenario.context(), scenario.model(), cache1, plain);
  SelectionResult r_batched =
      selector.Select(scenario.context(), scenario.model(), cache2, batched);
  EXPECT_LE(r_batched.box_pairs_evaluated, 1000);
  // The batched variant must be much faster in simulated time (TMerge-B).
  EXPECT_LT(r_batched.simulated_seconds, r_plain.simulated_seconds);
}

TEST(TMergeTest, BatchedStillFindsPolyPair) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1500;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  options.batch_size = 20;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TMergeTest, ExhaustsTinyUniverseGracefullyWithoutUlb) {
  // Without ULB nothing is pruned, so a huge budget must terminate by
  // exhausting every BBox pair exactly once.
  testing::MergeScenario scenario(2);
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000000;
  tmerge_options.use_ulb = false;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_EQ(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
}

TEST(TMergeTest, UlbTerminatesEarlyOnTinyUniverse) {
  // With ULB, decided pairs stop being sampled, so the loop ends long
  // before exhausting the grid — the efficiency claim of Algorithm 4.
  testing::MergeScenario scenario(2);
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000000;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LT(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
}

TEST(TMergeTest, EmptyContext) {
  testing::MergeScenario scenario;
  PairContext empty(scenario.result(), {});
  TMergeSelector selector;
  reid::FeatureCache cache;
  SelectionResult result = selector.Select(empty, scenario.model(), cache, {});
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.box_pairs_evaluated, 0);
}

TEST(TMergeTest, TracksSampledDistanceSum) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 800;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  ASSERT_GT(result.box_pairs_evaluated, 0);
  double mean = result.sum_sampled_distance / result.box_pairs_evaluated;
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0);
}

TEST(TMergeTest, RegretFallsWithBudget) {
  // §IV-E: the mean sampled distance approaches the minimum pair score as
  // tau grows, because sampling concentrates on low-score pairs.
  testing::MergeScenario scenario;
  auto mean_at = [&](std::int64_t tau) {
    TMergeOptions tmerge_options;
    tmerge_options.tau_max = tau;
    TMergeSelector selector(tmerge_options);
    reid::FeatureCache cache;
    SelectorOptions options;
    options.seed = 3;
    SelectionResult result =
        selector.Select(scenario.context(), scenario.model(), cache, options);
    return result.sum_sampled_distance / result.box_pairs_evaluated;
  };
  EXPECT_LT(mean_at(4000), mean_at(300));
}

TEST(TMergeTest, UlbCountersReported) {
  // On a tiny universe with an effectively unbounded budget, sampled pairs
  // shrink their Hoeffding intervals (and exhausted pairs collapse to
  // points) until ULB decides every pair — the counters must reflect that.
  // Without ULB the counters stay zero.
  testing::MergeScenario scenario(2);
  TMergeOptions with_ulb;
  with_ulb.tau_max = 1000000;
  TMergeOptions without_ulb = with_ulb;
  without_ulb.use_ulb = false;
  TMergeSelector a(with_ulb), b(without_ulb);
  reid::FeatureCache cache1, cache2;
  SelectionResult with_result =
      a.Select(scenario.context(), scenario.model(), cache1, {});
  SelectionResult without_result =
      b.Select(scenario.context(), scenario.model(), cache2, {});
  EXPECT_EQ(without_result.ulb_pruned_in + without_result.ulb_pruned_out, 0);
  EXPECT_GT(with_result.ulb_pruned_in + with_result.ulb_pruned_out, 0);
}

TEST(TMergeTest, CandidateCountMatchesK) {
  testing::MergeScenario scenario;
  TMergeSelector selector;
  SelectorOptions options;
  options.k_fraction = 0.2;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  EXPECT_EQ(result.candidates.size(),
            TopKCount(0.2, scenario.context().num_pairs()));
}

// Property: across budgets, recall of the truth pair never degrades much
// as tau grows (monotone-ish improvement).
class TMergeBudgetTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TMergeBudgetTest, LargerBudgetsKeepFindingTruth) {
  std::int64_t tau = GetParam();
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = tau;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  options.seed = 7;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found) << "tau " << tau;
}

INSTANTIATE_TEST_SUITE_P(Budgets, TMergeBudgetTest,
                         ::testing::Values(600, 1200, 2500, 5000));

}  // namespace
}  // namespace tmerge::merge
