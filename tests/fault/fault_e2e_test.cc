// End-to-end fault injection through the merge pipeline: armed failpoints
// keep the evaluation deterministic at every thread count, recall degrades
// gracefully as the ReID failure rate grows, and at failure 1.0 every
// dataset profile still completes with the spatial prior doing the ranking
// (DESIGN.md "Fault model & degraded mode").

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "tmerge/fault/registry.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

#ifdef TMERGE_FAULT_DISABLED
// Every test below arms failpoints; with the sites compiled out there is
// nothing to observe. The disabled build's contract (bit-identical to a
// clean run) is covered by the full ctest suite running unchanged.
#define TMERGE_SKIP_IF_FAULT_DISABLED() \
  GTEST_SKIP() << "failpoints compiled out (TMERGE_FAULT_DISABLED)"
#else
#define TMERGE_SKIP_IF_FAULT_DISABLED() (void)0
#endif

namespace tmerge {
namespace {

// The registry is process-global; every test starts and ends disarmed so
// ordering never leaks a schedule between tests.
class FaultE2eTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::GlobalRegistry().Reset(); }
  void TearDown() override {
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }
};

std::vector<merge::PreparedVideo> PrepareSmallDataset(
    sim::DatasetProfile profile, std::uint64_t seed) {
  sim::Dataset dataset = sim::MakeDataset(profile, /*num_videos=*/2, seed);
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.single_window = true;
  config.num_threads = 1;
  // PreparedVideo points into the dataset; copy into a holder that owns
  // both would complicate the tests, so prepare per call and keep the
  // dataset alive via static storage per (profile, seed).
  static std::vector<std::unique_ptr<sim::Dataset>>& datasets =
      *new std::vector<std::unique_ptr<sim::Dataset>>();
  datasets.push_back(std::make_unique<sim::Dataset>(std::move(dataset)));
  return merge::PrepareDataset(*datasets.back(), tracker, config);
}

TEST_F(FaultE2eTest, EvaluateDatasetBitIdenticalAcrossThreadCountsUnderFaults) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kMot17Like, /*seed=*/23);

  fault::GlobalRegistry().SetSeed(42);
  fault::GlobalRegistry().Arm("reid.embed", {0.3, 0.0});
  fault::GlobalRegistry().Arm("reid.latency", {0.2, 0.01});

  merge::TMergeSelector selector;
  merge::SelectorOptions options;
  options.seed = 3;
  merge::EvalResult reference =
      merge::EvaluateDataset(prepared, selector, options, /*num_threads=*/1);
  // The faults actually landed, otherwise this test proves nothing.
  ASSERT_GT(reference.failed_pulls + reference.reid_retries, 0);
  for (int threads : {2, 8}) {
    merge::EvalResult eval =
        merge::EvaluateDataset(prepared, selector, options, threads);
    EXPECT_EQ(eval.rec, reference.rec) << threads << " threads";
    EXPECT_EQ(eval.simulated_seconds, reference.simulated_seconds);
    EXPECT_EQ(eval.hits, reference.hits);
    EXPECT_EQ(eval.box_pairs_evaluated, reference.box_pairs_evaluated);
    EXPECT_EQ(eval.candidates, reference.candidates);
    // The injected fault schedule itself is keyed, hence thread-invariant.
    EXPECT_EQ(eval.failed_pulls, reference.failed_pulls);
    EXPECT_EQ(eval.reid_retries, reference.reid_retries);
    EXPECT_EQ(eval.degraded_windows, reference.degraded_windows);
    EXPECT_EQ(eval.usage.failed_embeds, reference.usage.failed_embeds);
    EXPECT_EQ(eval.usage.single_inferences, reference.usage.single_inferences);
    EXPECT_EQ(eval.usage.cache_hits, reference.usage.cache_hits);
  }
}

TEST_F(FaultE2eTest, ArmedButZeroProbabilityIsBitIdenticalToCleanRun) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  // Arming a failpoint must not perturb model/selector randomness: the
  // fault registry draws from its own keyed stream, never from core::Rng.
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kKittiLike, /*seed=*/31);
  merge::TMergeSelector selector;
  merge::SelectorOptions options;
  options.seed = 5;

  merge::EvalResult clean =
      merge::EvaluateDataset(prepared, selector, options, 1);
  fault::GlobalRegistry().Arm("reid.embed", {0.0, 0.0});
  fault::GlobalRegistry().Arm("reid.latency", {0.0, 1.0});
  merge::EvalResult armed =
      merge::EvaluateDataset(prepared, selector, options, 1);

  EXPECT_EQ(armed.rec, clean.rec);
  EXPECT_EQ(armed.simulated_seconds, clean.simulated_seconds);
  EXPECT_EQ(armed.candidates, clean.candidates);
  EXPECT_EQ(armed.box_pairs_evaluated, clean.box_pairs_evaluated);
  EXPECT_EQ(armed.failed_pulls, 0);
  EXPECT_EQ(armed.reid_retries, 0);
  EXPECT_EQ(armed.degraded_windows, 0);
  EXPECT_EQ(armed.usage.single_inferences, clean.usage.single_inferences);
  EXPECT_EQ(armed.usage.cache_hits, clean.usage.cache_hits);
  EXPECT_EQ(armed.usage.failed_embeds, 0);
}

TEST_F(FaultE2eTest, RecallDegradesGracefullyWithFailureRate) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kMot17Like, /*seed=*/7);
  merge::TMergeOptions tmerge_options;
  tmerge_options.tau_max = 2000;
  merge::TMergeSelector selector(tmerge_options);
  merge::SelectorOptions options;
  options.seed = 11;

  // The two videos hold 7 truth pairs, so one ReID realization's REC moves
  // in steps of 0.143, wider than the tolerance band below. The recall
  // lines therefore pool 20 realizations of the same tracking (model seeds
  // 1-40, two per realization): over 60 realizations, the successive REC
  // differences have sd 0.10, 0.15 and 0.11, which puts every pooled line
  // at least 3.6 standard errors inside the band.
  constexpr std::uint64_t kRealizations = 20;
  std::vector<merge::PreparedVideo> pooled;
  for (std::uint64_t r = 0; r < kRealizations; ++r) {
    for (std::size_t v = 0; v < prepared.size(); ++v) {
      pooled.push_back(prepared[v]);
      pooled.back().model = std::make_shared<reid::SyntheticReidModel>(
          *prepared[v].video, reid::ReidModelConfig{},
          prepared.size() * r + v + 1);
    }
  }

  fault::GlobalRegistry().SetSeed(9);
  const std::vector<double> rates = {0.0, 0.1, 0.5, 1.0};
  std::vector<merge::EvalResult> results;
  std::vector<merge::EvalResult> pooled_results;
  for (double rate : rates) {
    fault::GlobalRegistry().Arm("reid.embed", {rate, 0.0});
    results.push_back(merge::EvaluateDataset(prepared, selector, options, 2));
    pooled_results.push_back(
        merge::EvaluateDataset(pooled, selector, options, /*num_threads=*/0));
  }
  fault::GlobalRegistry().Disarm("reid.embed");

  // Failure accounting tracks the armed rate strictly.
  EXPECT_EQ(results[0].failed_pulls, 0);
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_GT(results[i].failed_pulls, results[i - 1].failed_pulls)
        << "rate " << rates[i];
  }
  // Monotonically-ish degrading recall: sampling noise may wiggle a point
  // upward a little, but never by more than the tolerance band, and the
  // endpoints must be strictly ordered (healthy beats fully failed).
  constexpr double kTolerance = 0.10;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_LE(pooled_results[i].rec, pooled_results[i - 1].rec + kTolerance)
        << "rate " << rates[i];
  }
  EXPECT_GT(pooled_results[0].rec, pooled_results[3].rec);
  // Even at full failure the selector returns a usable candidate set.
  EXPECT_FALSE(results[3].candidates.empty());
}

TEST_F(FaultE2eTest, FullFailureCompletesEveryProfileAndBeatsIouOnly) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  // The acceptance gate: failure rate 1.0 on reid.embed completes on every
  // dataset profile, performs zero posterior updates (no inference ever
  // succeeds, no Bernoulli evidence is consumed), and the spatial-prior
  // ranking still recalls at least as much as an IoU-only selection
  // (TMerge pinned to the minimum budget, no faults: BetaInit priors are
  // the ranking in both cases).
  const sim::DatasetProfile profiles[] = {sim::DatasetProfile::kMot17Like,
                                          sim::DatasetProfile::kKittiLike,
                                          sim::DatasetProfile::kPathTrackLike};
  for (sim::DatasetProfile profile : profiles) {
    SCOPED_TRACE(sim::DatasetProfileName(profile));
    std::vector<merge::PreparedVideo> prepared =
        PrepareSmallDataset(profile, /*seed=*/13);
    merge::SelectorOptions options;
    options.seed = 17;

    // IoU-only baseline: minimum sampling budget, no faults, so scores are
    // (almost) pure BetaInit spatial priors.
    fault::GlobalRegistry().Reset();
    merge::TMergeOptions minimal;
    minimal.tau_max = 1;
    merge::TMergeSelector iou_only(minimal);
    merge::EvalResult baseline =
        merge::EvaluateDataset(prepared, iou_only, options, 1);

    merge::TMergeOptions tmerge_options;
    tmerge_options.tau_max = 500;
    merge::TMergeSelector selector(tmerge_options);
    fault::GlobalRegistry().Arm("reid.embed", {1.0, 0.0});
    merge::EvalResult faulted =
        merge::EvaluateDataset(prepared, selector, options, 1);
    fault::GlobalRegistry().Disarm("reid.embed");

    // Completed, and no posterior was ever updated: every pull failed, so
    // no feature exists, no distance was evaluated, no Bernoulli trial ran.
    EXPECT_GT(faulted.failed_pulls, 0);
    EXPECT_GT(faulted.usage.failed_embeds, 0);
    EXPECT_EQ(faulted.usage.TotalInferences(), 0);
    EXPECT_EQ(faulted.box_pairs_evaluated, 0);
    EXPECT_FALSE(faulted.candidates.empty());
    EXPECT_GE(faulted.rec, baseline.rec);
  }
}

TEST_F(FaultE2eTest, BreakerOpensEveryWindowAtFullFailure) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kMot17Like, /*seed=*/19);
  merge::TMergeOptions tmerge_options;
  tmerge_options.tau_max = 500;
  merge::TMergeSelector selector(tmerge_options);
  merge::SelectorOptions options;
  options.fault_policy.breaker_failure_threshold = 4;

  fault::GlobalRegistry().Arm("reid.embed", {1.0, 0.0});
  merge::EvalResult eval =
      merge::EvaluateDataset(prepared, selector, options, 1);

  // Nothing ever succeeds, so every window trips its breaker and finishes
  // in degraded mode; retries stop once it is open, bounding retry counts.
  EXPECT_EQ(eval.degraded_windows, eval.windows);
  EXPECT_GT(eval.reid_retries, 0);
  EXPECT_GT(eval.failed_pulls, 0);
}

TEST_F(FaultE2eTest, LcbSurvivesFullFailure) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  // LCB shares the guard/degraded-mode plumbing; at failure 1.0 no pair
  // ever gets a pull, so bounds must fall back to "unknown" instead of
  // crashing on pulls == 0.
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kKittiLike, /*seed=*/29);
  merge::LcbSelector selector(/*tau_max=*/300);
  merge::SelectorOptions options;

  fault::GlobalRegistry().Arm("reid.embed", {1.0, 0.0});
  merge::EvalResult eval =
      merge::EvaluateDataset(prepared, selector, options, 1);

  EXPECT_GT(eval.failed_pulls, 0);
  EXPECT_EQ(eval.usage.TotalInferences(), 0);
  EXPECT_EQ(eval.box_pairs_evaluated, 0);
  EXPECT_FALSE(eval.candidates.empty());
}

TEST_F(FaultE2eTest, EveryFailpointArmedAtFullRateStillCompletes) {
  TMERGE_SKIP_IF_FAULT_DISABLED();
  // Worst case: every shipped failpoint fires on every evaluation,
  // including thread-pool task rejection (ParallelFor degrades to inline
  // execution on the caller) and cache eviction/forced misses.
  std::vector<merge::PreparedVideo> prepared =
      PrepareSmallDataset(sim::DatasetProfile::kMot17Like, /*seed=*/37);
  ASSERT_TRUE(fault::GlobalRegistry()
                  .ApplySpec("reid.embed=1;reid.latency=1@0.01;"
                             "reid.cache.evict=1;reid.cache.miss=1;"
                             "io.mot.short_read=1;io.mot.corrupt_row=1;"
                             "core.pool.submit=1")
                  .ok());
  merge::TMergeOptions tmerge_options;
  tmerge_options.tau_max = 300;
  merge::TMergeSelector selector(tmerge_options);
  merge::SelectorOptions options;
  merge::EvalResult eval =
      merge::EvaluateDataset(prepared, selector, options, 4);
  EXPECT_GT(eval.failed_pulls, 0);
  EXPECT_EQ(eval.usage.TotalInferences(), 0);
  EXPECT_GT(fault::GlobalRegistry().total_fires(), 0);
}

}  // namespace
}  // namespace tmerge
