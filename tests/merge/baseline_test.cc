#include "tmerge/merge/baseline.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "testing/merge_fixture.h"
#include "testing/test_util.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/reid/distance_kernels.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::merge {
namespace {

TEST(BaselineTest, FindsThePolyonymousPair) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  options.k_fraction = 0.1;
  SelectionResult result =
      baseline.Select(scenario.context(), scenario.model(), cache, options);
  ASSERT_FALSE(result.candidates.empty());
  // The true pair must rank first: its score is far below every cross pair.
  EXPECT_EQ(result.candidates[0], scenario.truth_pair());
}

TEST(BaselineTest, EvaluatesEveryBoxPair) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  SelectionResult result =
      baseline.Select(scenario.context(), scenario.model(), cache, options);
  EXPECT_EQ(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
  EXPECT_EQ(result.usage.distance_evals, scenario.context().TotalBoxPairs());
}

TEST(BaselineTest, EmbedsEachCropOnce) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  SelectionResult result =
      baseline.Select(scenario.context(), scenario.model(), cache, options);
  std::int64_t total_boxes = scenario.result().TotalBoxes();
  EXPECT_EQ(result.usage.TotalInferences(), total_boxes);
  EXPECT_GT(result.usage.cache_hits, 0);
}

TEST(BaselineTest, ScoresAreMeansInUnitInterval) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  baseline.Select(scenario.context(), scenario.model(), cache, options);
  ASSERT_EQ(baseline.last_scores().size(), scenario.context().num_pairs());
  for (double score : baseline.last_scores()) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(BaselineTest, PolyPairScoreLowest) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  baseline.Select(scenario.context(), scenario.model(), cache, options);
  const auto& context = scenario.context();
  double poly_score = 0.0;
  double min_other = 1.0;
  for (std::size_t p = 0; p < context.num_pairs(); ++p) {
    if (context.pair(p) == scenario.truth_pair()) {
      poly_score = baseline.last_scores()[p];
    } else {
      min_other = std::min(min_other, baseline.last_scores()[p]);
    }
  }
  EXPECT_LT(poly_score, min_other);
}

TEST(BaselineTest, BatchedAgreesWithUnbatched) {
  testing::MergeScenario scenario;
  SelectorOptions plain_options;
  plain_options.k_fraction = 0.2;
  SelectorOptions batched_options = plain_options;
  batched_options.batch_size = 4;

  BaselineSelector plain, batched;
  reid::FeatureCache cache1, cache2;
  SelectionResult r1 =
      plain.Select(scenario.context(), scenario.model(), cache1, plain_options);
  SelectionResult r2 = batched.Select(scenario.context(), scenario.model(),
                                      cache2, batched_options);
  EXPECT_EQ(r1.candidates, r2.candidates);
  EXPECT_EQ(plain.last_scores(), batched.last_scores());
}

TEST(BaselineTest, BatchedIsFasterInSimulatedTime) {
  testing::MergeScenario scenario;
  SelectorOptions plain_options;
  SelectorOptions batched_options;
  batched_options.batch_size = 10;
  BaselineSelector selector;
  reid::FeatureCache cache1, cache2;
  double plain_time =
      selector.Select(scenario.context(), scenario.model(), cache1,
                      plain_options)
          .simulated_seconds;
  double batched_time =
      selector.Select(scenario.context(), scenario.model(), cache2,
                      batched_options)
          .simulated_seconds;
  EXPECT_LT(batched_time, plain_time);
}

TEST(BaselineTest, CacheSharedAcrossCallsSavesInferences) {
  testing::MergeScenario scenario;
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectorOptions options;
  SelectionResult first =
      baseline.Select(scenario.context(), scenario.model(), cache, options);
  SelectionResult second =
      baseline.Select(scenario.context(), scenario.model(), cache, options);
  EXPECT_GT(first.usage.TotalInferences(), 0);
  EXPECT_EQ(second.usage.TotalInferences(), 0);  // Everything cached.
}

// Every BL and BL-B score is Def. 3.1 computed pair by pair: the mean of
// ReidModel::NormalizedDistance over the pair's box pairs, summed fa-outer
// and fb-inner, to the last bit on both kernel paths. The candidate
// comparisons elsewhere would miss a score that drifted without
// reordering the top K. One KITTI-like video in a single window keeps it
// small; the assertion on the B-side sizes makes sure the sweep's
// 16-column block, 4-column step and scalar tail all run.
TEST(BaselineTest, ScoresMatchPairwiseReferenceBitForBit) {
  testing::ScopedKernelMode restore;
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, 1, /*seed=*/5);
  track::SortTracker tracker;
  PipelineConfig config;
  config.window.single_window = true;
  PreparedVideo prepared = PrepareVideo(dataset.videos[0], tracker, config);
  ASSERT_EQ(prepared.windows.size(), 1u);
  PairContext context(prepared.tracking, prepared.windows[0].pairs);
  const reid::ReidModel& model = *prepared.model;

  bool every_branch = false;
  for (std::size_t p = 0; p < context.num_pairs(); ++p) {
    const std::size_t n_b = context.CropsB(p).size();
    every_branch |= n_b % 16 >= 4 && n_b % 4 != 0 && n_b > 16;
  }
  ASSERT_TRUE(every_branch);

  for (bool scalar : {false, true}) {
    for (std::int32_t batch_size : {1, 10}) {
      reid::kernels::SetUseScalarKernels(scalar);
      BaselineSelector baseline;
      reid::FeatureCache cache;
      SelectorOptions options;
      options.batch_size = batch_size;
      baseline.Select(context, model, cache, options);
      const std::vector<double> scores = baseline.last_scores();
      ASSERT_EQ(scores.size(), context.num_pairs());

      std::vector<double> expected(context.num_pairs(), 1.0);
      for (std::size_t p = 0; p < context.num_pairs(); ++p) {
        double sum = 0.0;
        for (const reid::CropRef& a : context.CropsA(p)) {
          const reid::FeatureView fa = cache.View(cache.Find(a.detection_id));
          for (const reid::CropRef& b : context.CropsB(p)) {
            sum += model.NormalizedDistance(
                fa, cache.View(cache.Find(b.detection_id)));
          }
        }
        const std::size_t count =
            context.CropsA(p).size() * context.CropsB(p).size();
        if (count > 0) expected[p] = sum / static_cast<double>(count);
      }
      EXPECT_EQ(std::memcmp(scores.data(), expected.data(),
                            scores.size() * sizeof(double)),
                0)
          << "scalar=" << scalar << " batch_size=" << batch_size;
    }
  }
}

TEST(BaselineTest, EmptyContext) {
  testing::MergeScenario scenario;
  PairContext empty(scenario.result(), {});
  BaselineSelector baseline;
  reid::FeatureCache cache;
  SelectionResult result =
      baseline.Select(empty, scenario.model(), cache, {});
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.box_pairs_evaluated, 0);
}

}  // namespace
}  // namespace tmerge::merge
