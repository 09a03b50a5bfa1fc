// Differential tests for the vectorized distance-kernel path: every
// selector must produce bit-identical SelectionResults whether the reid
// distance kernels run unrolled (the default) or on the scalar reference
// path — the compatibility contract in reid/distance_kernels.h. A
// dataset-level sweep extends the check across profiles and thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testing/merge_fixture.h"
#include "testing/test_util.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/distance_kernels.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::merge {
namespace {

std::vector<std::pair<std::string, std::unique_ptr<CandidateSelector>>>
AllSelectors() {
  std::vector<std::pair<std::string, std::unique_ptr<CandidateSelector>>> out;
  out.emplace_back("BL", std::make_unique<BaselineSelector>());
  out.emplace_back("PS", std::make_unique<ProportionalSelector>(0.5));
  out.emplace_back("LCB", std::make_unique<LcbSelector>(800));
  out.emplace_back("TMerge", std::make_unique<TMergeSelector>());
  return out;
}

SelectionResult RunOnce(CandidateSelector& selector,
                        const testing::MergeScenario& scenario,
                        std::int32_t batch_size, bool scalar) {
  reid::kernels::SetUseScalarKernels(scalar);
  reid::FeatureCache cache;
  SelectorOptions options;
  options.batch_size = batch_size;
  options.seed = 11;
  return selector.Select(scenario.context(), scenario.model(), cache,
                         options);
}

// Everything except wall-clock bookkeeping must match to the last bit.
void ExpectBitIdentical(const SelectionResult& vec,
                        const SelectionResult& scalar,
                        const std::string& label) {
  EXPECT_EQ(vec.candidates, scalar.candidates) << label;
  EXPECT_EQ(vec.box_pairs_evaluated, scalar.box_pairs_evaluated) << label;
  EXPECT_EQ(vec.sum_sampled_distance, scalar.sum_sampled_distance) << label;
  EXPECT_EQ(vec.simulated_seconds, scalar.simulated_seconds) << label;
  EXPECT_EQ(vec.ulb_pruned_in, scalar.ulb_pruned_in) << label;
  EXPECT_EQ(vec.ulb_pruned_out, scalar.ulb_pruned_out) << label;
  EXPECT_EQ(vec.failed_pulls, scalar.failed_pulls) << label;
  EXPECT_EQ(vec.usage.single_inferences, scalar.usage.single_inferences)
      << label;
  EXPECT_EQ(vec.usage.batched_crops, scalar.usage.batched_crops) << label;
  EXPECT_EQ(vec.usage.batch_calls, scalar.usage.batch_calls) << label;
  EXPECT_EQ(vec.usage.distance_evals, scalar.usage.distance_evals) << label;
  EXPECT_EQ(vec.usage.cache_hits, scalar.usage.cache_hits) << label;
  EXPECT_EQ(vec.usage.failed_embeds, scalar.usage.failed_embeds) << label;
}

TEST(KernelDifferentialTest, AllSelectorsBitIdenticalAcrossKernelPaths) {
  testing::ScopedKernelMode restore;
  testing::MergeScenario scenario;
  for (auto& [name, selector] : AllSelectors()) {
    for (std::int32_t batch_size : {1, 4}) {
      SelectionResult vectorized =
          RunOnce(*selector, scenario, batch_size, /*scalar=*/false);
      SelectionResult scalar =
          RunOnce(*selector, scenario, batch_size, /*scalar=*/true);
      ExpectBitIdentical(vectorized, scalar,
                         name + " B=" + std::to_string(batch_size));
      // Sanity: the runs did real work, so the comparison is not vacuous.
      EXPECT_GT(vectorized.box_pairs_evaluated, 0) << name;
      EXPECT_FALSE(vectorized.candidates.empty()) << name;
    }
  }
}

// Dataset-level: kernel path x thread count over two dataset profiles, all
// four combinations bit-identical in every deterministic EvalResult field.
TEST(KernelDifferentialTest, DatasetEvalBitIdenticalAcrossKernelsAndThreads) {
  testing::ScopedKernelMode restore;
  for (sim::DatasetProfile profile :
       {sim::DatasetProfile::kKittiLike, sim::DatasetProfile::kMot17Like}) {
    sim::Dataset dataset = sim::MakeDataset(profile, 2, /*seed=*/13);
    track::SortTracker tracker;
    PipelineConfig config;
    config.window.single_window = true;
    std::vector<PreparedVideo> prepared =
        PrepareDataset(dataset, tracker, config);

    TMergeSelector selector;
    SelectorOptions options;
    options.seed = 3;

    reid::kernels::SetUseScalarKernels(true);
    EvalResult reference = EvaluateDataset(prepared, selector, options, 1);
    for (bool scalar : {false, true}) {
      reid::kernels::SetUseScalarKernels(scalar);
      for (int threads : {1, 8}) {
        if (scalar && threads == 1) continue;  // That is the reference run.
        EvalResult eval = EvaluateDataset(prepared, selector, options,
                                          threads);
        const std::string label = std::string("scalar=") +
                                  (scalar ? "1" : "0") + " threads=" +
                                  std::to_string(threads);
        EXPECT_EQ(eval.rec, reference.rec) << label;
        EXPECT_EQ(eval.fps, reference.fps) << label;
        EXPECT_EQ(eval.simulated_seconds, reference.simulated_seconds)
            << label;
        EXPECT_EQ(eval.pairs, reference.pairs) << label;
        EXPECT_EQ(eval.truth_pairs, reference.truth_pairs) << label;
        EXPECT_EQ(eval.hits, reference.hits) << label;
        EXPECT_EQ(eval.box_pairs_evaluated, reference.box_pairs_evaluated)
            << label;
        EXPECT_EQ(eval.candidates, reference.candidates) << label;
        EXPECT_EQ(eval.usage.single_inferences,
                  reference.usage.single_inferences)
            << label;
        EXPECT_EQ(eval.usage.batched_crops, reference.usage.batched_crops)
            << label;
        EXPECT_EQ(eval.usage.distance_evals, reference.usage.distance_evals)
            << label;
        EXPECT_EQ(eval.usage.cache_hits, reference.usage.cache_hits) << label;
      }
    }
  }
}

}  // namespace
}  // namespace tmerge::merge
