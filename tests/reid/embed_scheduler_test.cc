// EmbedScheduler unit tests: CostModel-driven batch planning, dedup and
// the conservation identity, charge parity with the FeatureCache's own
// batched path, and the compute/commit split's headline guarantee — sync
// (no pool) and async (pool) runs are bit-identical in features, charges
// and stats.

#include "tmerge/reid/embed_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "testing/merge_fixture.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature_cache.h"

namespace tmerge::reid {
namespace {

/// Every crop of every pair of the scenario, in pair order — tracks shared
/// by several pairs repeat, which is exactly the dedup workload.
std::vector<CropRef> ScenarioCrops(const testing::MergeScenario& scenario) {
  std::vector<CropRef> crops;
  const merge::PairContext& context = scenario.context();
  for (std::size_t p = 0; p < context.num_pairs(); ++p) {
    const auto& a = context.CropsA(p);
    const auto& b = context.CropsB(p);
    crops.insert(crops.end(), a.begin(), a.end());
    crops.insert(crops.end(), b.begin(), b.end());
  }
  return crops;
}

std::int64_t UniqueCount(const std::vector<CropRef>& crops) {
  std::unordered_set<std::uint64_t> ids;
  for (const CropRef& crop : crops) ids.insert(crop.detection_id);
  return static_cast<std::int64_t>(ids.size());
}

void ExpectConservation(const EmbedSchedulerStats& stats) {
  EXPECT_EQ(stats.requested,
            stats.cache_hits + stats.dedup_hits + stats.batched_crops +
                stats.single_crops + stats.failed_crops);
  EXPECT_EQ(stats.outstanding, 0);
}

TEST(EmbedSchedulerTest, BreakEvenFollowsCostModel) {
  // Defaults: batch_fixed 1e-3 / (single 5e-3 - batch_item 2.5e-4) < 1,
  // so batching pays off immediately.
  EXPECT_EQ(EmbedScheduler::BreakEvenBatchSize(CostModel{}), 1);

  CostModel slow_launch;
  slow_launch.single_inference_seconds = 1e-3;
  slow_launch.batch_item_seconds = 9e-4;
  slow_launch.batch_fixed_seconds = 1e-2;
  EXPECT_EQ(EmbedScheduler::BreakEvenBatchSize(slow_launch), 100);

  // A batched crop no cheaper than a single one never breaks even.
  CostModel degenerate;
  degenerate.batch_item_seconds = degenerate.single_inference_seconds;
  EXPECT_EQ(EmbedScheduler::BreakEvenBatchSize(degenerate),
            std::numeric_limits<std::int32_t>::max());
}

TEST(EmbedSchedulerTest, DedupAndConservation) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  const std::int64_t unique = UniqueCount(crops);
  ASSERT_GT(unique, 0);
  ASSERT_LT(unique, static_cast<std::int64_t>(crops.size()))
      << "scenario must share tracks across pairs for dedup to matter";

  EmbedScheduler scheduler{EmbedSchedulerConfig{}, nullptr};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  EmbedSchedulerStats group =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  EXPECT_EQ(group.requested, static_cast<std::int64_t>(crops.size()));
  EXPECT_EQ(group.cache_hits, 0);
  EXPECT_EQ(group.dedup_hits,
            static_cast<std::int64_t>(crops.size()) - unique);
  EXPECT_EQ(group.batched_crops + group.single_crops, unique);
  EXPECT_EQ(group.failed_crops, 0);
  ExpectConservation(group);
  for (const CropRef& crop : crops) {
    EXPECT_TRUE(cache.Contains(crop.detection_id));
  }
  // The meter saw exactly the embedded crops.
  EXPECT_EQ(meter.stats().TotalInferences(), unique);

  // A second identical group is all cache hits: nothing embeds twice.
  EmbedSchedulerStats again =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);
  EXPECT_EQ(again.cache_hits + again.dedup_hits, again.requested);
  EXPECT_EQ(again.batched_crops + again.single_crops, 0);
  ExpectConservation(again);

  // Lifetime totals fold both groups.
  EmbedSchedulerStats totals = scheduler.stats();
  EXPECT_EQ(totals.groups, 2);
  EXPECT_EQ(totals.requested, 2 * static_cast<std::int64_t>(crops.size()));
  ExpectConservation(totals);
}

TEST(EmbedSchedulerTest, SyncAndAsyncRunsBitIdentical) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);

  EmbedSchedulerConfig config;
  config.max_batch_size = 16;  // Several batches, so async runs overlap.

  EmbedScheduler sync{config, nullptr};
  FeatureCache sync_cache;
  InferenceMeter sync_meter{CostModel{}};
  EmbedSchedulerStats sync_stats =
      sync.EmbedAll(crops, sync_cache, scenario.model(), sync_meter);

  core::ThreadPool pool(4);
  EmbedScheduler async{config, &pool};
  FeatureCache async_cache;
  InferenceMeter async_meter{CostModel{}};
  EmbedSchedulerStats async_stats =
      async.EmbedAll(crops, async_cache, scenario.model(), async_meter);

  // Charges and usage are the commit phase's output: identical sequences.
  EXPECT_EQ(async_meter.elapsed_seconds(), sync_meter.elapsed_seconds());
  EXPECT_EQ(async_meter.stats().single_inferences,
            sync_meter.stats().single_inferences);
  EXPECT_EQ(async_meter.stats().batched_crops,
            sync_meter.stats().batched_crops);
  EXPECT_EQ(async_meter.stats().batch_calls, sync_meter.stats().batch_calls);
  EXPECT_EQ(async_meter.stats().cache_hits, sync_meter.stats().cache_hits);
  EXPECT_EQ(async_meter.stats().failed_embeds,
            sync_meter.stats().failed_embeds);

  // Group accounting matches except the dispatch-shape counters
  // (inline_dispatches / peak_inflight), which describe the execution
  // mode, not the work.
  EXPECT_EQ(async_stats.requested, sync_stats.requested);
  EXPECT_EQ(async_stats.cache_hits, sync_stats.cache_hits);
  EXPECT_EQ(async_stats.dedup_hits, sync_stats.dedup_hits);
  EXPECT_EQ(async_stats.batches, sync_stats.batches);
  EXPECT_EQ(async_stats.batched_crops, sync_stats.batched_crops);
  EXPECT_EQ(async_stats.single_crops, sync_stats.single_crops);
  EXPECT_EQ(async_stats.failed_crops, sync_stats.failed_crops);
  ExpectConservation(async_stats);

  // The committed features themselves are the same floats.
  InferenceMeter scratch{CostModel{}};
  for (const CropRef& crop : crops) {
    FeatureView a = sync_cache.GetOrEmbed(crop, scenario.model(), scratch);
    FeatureView b = async_cache.GetOrEmbed(crop, scenario.model(), scratch);
    ASSERT_TRUE(a.valid());
    ASSERT_TRUE(b.valid());
    ASSERT_EQ(a.dim, b.dim);
    for (std::size_t d = 0; d < a.dim; ++d) {
      EXPECT_EQ(a[d], b[d]) << "crop " << crop.detection_id << " dim " << d;
    }
  }
}

TEST(EmbedSchedulerTest, ChargeParityWithFeatureCacheBatchPath) {
  testing::MergeScenario scenario;
  std::vector<CropRef> all = ScenarioCrops(scenario);
  // One deduped plan that fits a single batch, so both paths issue exactly
  // one batched inference over the same crops.
  std::vector<CropRef> crops;
  std::unordered_set<std::uint64_t> seen;
  for (const CropRef& crop : all) {
    if (seen.insert(crop.detection_id).second) crops.push_back(crop);
    if (crops.size() == 32) break;
  }

  EmbedScheduler scheduler{EmbedSchedulerConfig{}, nullptr};
  FeatureCache sched_cache;
  InferenceMeter sched_meter{CostModel{}};
  scheduler.EmbedAll(crops, sched_cache, scenario.model(), sched_meter);

  FeatureCache direct_cache;
  InferenceMeter direct_meter{CostModel{}};
  direct_cache.TryGetOrEmbedBatch(crops, scenario.model(), direct_meter);

  EXPECT_EQ(sched_meter.elapsed_seconds(), direct_meter.elapsed_seconds());
  EXPECT_EQ(sched_meter.stats().batched_crops,
            direct_meter.stats().batched_crops);
  EXPECT_EQ(sched_meter.stats().batch_calls,
            direct_meter.stats().batch_calls);
  EXPECT_EQ(sched_meter.stats().single_inferences,
            direct_meter.stats().single_inferences);
}

TEST(EmbedSchedulerTest, MaxBatchSizeSplitsThePlan) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  const std::int64_t unique = UniqueCount(crops);

  EmbedSchedulerConfig config;
  config.max_batch_size = 8;
  EmbedScheduler scheduler{config, nullptr};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  EmbedSchedulerStats stats =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  // Default CostModel break-even is 1, so every chunk — tail included —
  // goes batched: ceil(unique / 8) batches covering every unique crop.
  EXPECT_EQ(stats.batches, (unique + 7) / 8);
  EXPECT_EQ(stats.batched_crops, unique);
  EXPECT_EQ(stats.single_crops, 0);
  ExpectConservation(stats);
}

TEST(EmbedSchedulerTest, BatchedCropNoCheaperForcesSinglePath) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  const std::int64_t unique = UniqueCount(crops);

  // A batched crop that costs as much as a single one never breaks even,
  // so every chunk takes the single path.
  CostModel no_batch_gain;
  no_batch_gain.batch_item_seconds = no_batch_gain.single_inference_seconds;
  EmbedScheduler scheduler{EmbedSchedulerConfig{}, nullptr};
  FeatureCache cache;
  InferenceMeter meter{no_batch_gain};
  EmbedSchedulerStats stats =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.batched_crops, 0);
  EXPECT_EQ(stats.single_crops, unique);
  EXPECT_EQ(meter.stats().single_inferences, unique);
  ExpectConservation(stats);
}

TEST(EmbedSchedulerTest, FlushIdlesAtZeroOutstanding) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);

  core::ThreadPool pool(2);
  EmbedScheduler scheduler{EmbedSchedulerConfig{}, &pool};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  scheduler.Flush();
  EXPECT_EQ(scheduler.stats().outstanding, 0);
  // Flush on an idle scheduler is a no-op, not a hang.
  scheduler.Flush();
}

}  // namespace
}  // namespace tmerge::reid
