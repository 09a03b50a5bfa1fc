// Fault and stress tests for the EmbedScheduler ("fault." ctest prefix,
// run by the CI fault legs): injected whole-batch dispatch failures,
// dispatch deferral and executor rejection must never lose or duplicate a
// request (the conservation identity), the in-flight bound must hold
// under load, and a shared scheduler hammered by concurrent groups must
// drain to a clean force-flush with per-group results identical to a
// serial replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "testing/merge_fixture.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/fault/registry.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/reid/feature_cache.h"

namespace tmerge::reid {
namespace {

// The registry is process-global; every test starts and ends disarmed so
// ordering never leaks a schedule between tests.
class SchedulerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::GlobalRegistry().Reset(); }
  void TearDown() override {
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }
};

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

std::int64_t CachedCount(const FeatureCache& cache,
                         const std::vector<CropRef>& crops) {
  std::unordered_set<std::uint64_t> counted;
  std::int64_t cached = 0;
  for (const CropRef& crop : crops) {
    if (!counted.insert(crop.detection_id).second) continue;
    if (cache.Contains(crop.detection_id)) ++cached;
  }
  return cached;
}

void ExpectConservation(const EmbedSchedulerStats& stats) {
  EXPECT_EQ(stats.requested,
            stats.cache_hits + stats.dedup_hits + stats.batched_crops +
                stats.single_crops + stats.failed_crops);
  EXPECT_EQ(stats.outstanding, 0);
}

TEST_F(SchedulerFaultTest, BatchFailRetriesEveryCropOnSinglePath) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  const std::int64_t unique = UniqueCount(crops);

  fault::GlobalRegistry().Arm("reid.embed.batch_fail", {1.0, 0.0});
  core::ThreadPool pool(2);
  EmbedScheduler scheduler{EmbedSchedulerConfig{}, &pool};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  EmbedSchedulerStats stats =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  // Every planned batch failed dispatch; every crop still arrived, via the
  // single-inference retry under a fresh salt.
  EXPECT_GT(stats.batches, 0);
  EXPECT_EQ(stats.batch_failures, stats.batches);
  EXPECT_EQ(stats.batched_crops, 0);
  EXPECT_EQ(stats.single_crops, unique);
  EXPECT_EQ(stats.failed_crops, 0);
  ExpectConservation(stats);
  EXPECT_EQ(CachedCount(cache, crops), unique);
  // The failed launch is not free: its fixed cost is charged as a penalty
  // on top of the single retries.
  CostModel cost;
  EXPECT_GT(meter.elapsed_seconds(),
            static_cast<double>(unique) * cost.single_inference_seconds);
}

TEST_F(SchedulerFaultTest, PartialFaultsLoseNothing) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  const std::int64_t unique = UniqueCount(crops);

  fault::GlobalRegistry().SetSeed(42);
  fault::GlobalRegistry().Arm("reid.embed.batch_fail", {0.5, 0.0});
  fault::GlobalRegistry().Arm("reid.embed", {0.3, 0.0});
  core::ThreadPool pool(2);
  EmbedSchedulerConfig config;
  config.max_batch_size = 8;  // Many batches, so both rates actually land.
  EmbedScheduler scheduler{config, &pool};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  EmbedSchedulerStats stats =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  // The faults landed, and still: requested crops partition exactly into
  // hits, dedups, embedded and failed — nothing lost, nothing duplicated.
  EXPECT_GT(stats.failed_crops, 0);
  ExpectConservation(stats);
  EXPECT_EQ(stats.batched_crops + stats.single_crops + stats.failed_crops,
            unique);
  // Exactly the embedded crops are cached; failed ones are not.
  EXPECT_EQ(CachedCount(cache, crops),
            stats.batched_crops + stats.single_crops);
  EXPECT_EQ(meter.stats().failed_embeds, stats.failed_crops);
}

TEST_F(SchedulerFaultTest, DeferredDispatchCommitsIdentically) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);

  EmbedSchedulerConfig config;
  config.max_batch_size = 8;

  EmbedScheduler clean{config, nullptr};
  FeatureCache clean_cache;
  InferenceMeter clean_meter{CostModel{}};
  EmbedSchedulerStats clean_stats =
      clean.EmbedAll(crops, clean_cache, scenario.model(), clean_meter);

  fault::GlobalRegistry().Arm("reid.sched.defer", {1.0, 0.0});
  core::ThreadPool pool(2);
  EmbedScheduler deferred{config, &pool};
  FeatureCache deferred_cache;
  InferenceMeter deferred_meter{CostModel{}};
  EmbedSchedulerStats deferred_stats = deferred.EmbedAll(
      crops, deferred_cache, scenario.model(), deferred_meter);

  // Deferral reorders dispatch only; the plan-order commit makes charges,
  // counters and features bit-identical to the clean run.
  EXPECT_EQ(deferred_stats.deferred_batches, deferred_stats.batches);
  EXPECT_EQ(clean_stats.deferred_batches, 0);
  EXPECT_EQ(deferred_stats.batches, clean_stats.batches);
  EXPECT_EQ(deferred_stats.batched_crops, clean_stats.batched_crops);
  EXPECT_EQ(deferred_stats.single_crops, clean_stats.single_crops);
  EXPECT_EQ(deferred_stats.failed_crops, clean_stats.failed_crops);
  EXPECT_EQ(deferred_meter.elapsed_seconds(), clean_meter.elapsed_seconds());
  ExpectConservation(deferred_stats);

  InferenceMeter scratch{CostModel{}};
  for (const CropRef& crop : crops) {
    FeatureView a = clean_cache.GetOrEmbed(crop, scenario.model(), scratch);
    FeatureView b =
        deferred_cache.GetOrEmbed(crop, scenario.model(), scratch);
    ASSERT_EQ(a.dim, b.dim);
    for (std::size_t d = 0; d < a.dim; ++d) {
      EXPECT_EQ(a[d], b[d]) << "crop " << crop.detection_id;
    }
  }
}

TEST_F(SchedulerFaultTest, SubmitRejectionDegradesToInlineCompute) {
  testing::MergeScenario scenario;
  std::vector<CropRef> crops = ScenarioCrops(scenario);

  EmbedSchedulerConfig config;
  config.max_batch_size = 16;

  EmbedScheduler reference{config, nullptr};
  FeatureCache reference_cache;
  InferenceMeter reference_meter{CostModel{}};
  reference.EmbedAll(crops, reference_cache, scenario.model(),
                     reference_meter);

  fault::GlobalRegistry().Arm("core.pool.submit", {1.0, 0.0});
  core::ThreadPool pool(2);
  EmbedScheduler rejected{config, &pool};
  FeatureCache rejected_cache;
  InferenceMeter rejected_meter{CostModel{}};
  EmbedSchedulerStats stats = rejected.EmbedAll(
      crops, rejected_cache, scenario.model(), rejected_meter);

  // Every Submit was rejected; every batch computed inline on the caller,
  // with the same charges as the no-pool run.
  EXPECT_EQ(stats.inline_dispatches, stats.batches);
  EXPECT_EQ(stats.failed_crops, 0);
  ExpectConservation(stats);
  EXPECT_EQ(rejected_meter.elapsed_seconds(),
            reference_meter.elapsed_seconds());
  EXPECT_EQ(rejected_meter.stats().batched_crops,
            reference_meter.stats().batched_crops);
}

TEST_F(SchedulerFaultTest, InflightBoundHoldsUnderLoad) {
  testing::MergeScenario scenario(/*num_objects=*/10);
  std::vector<CropRef> crops = ScenarioCrops(scenario);

  EmbedSchedulerConfig config;
  config.max_batch_size = 4;  // Lots of batches against a tiny bound.
  config.max_inflight_batches = 2;
  core::ThreadPool pool(4);
  EmbedScheduler scheduler{config, &pool};
  FeatureCache cache;
  InferenceMeter meter{CostModel{}};
  EmbedSchedulerStats stats =
      scheduler.EmbedAll(crops, cache, scenario.model(), meter);

  EXPECT_GT(stats.batches, config.max_inflight_batches);
  EXPECT_LE(stats.peak_inflight, config.max_inflight_batches);
  EXPECT_GT(stats.peak_inflight, 0);
  ExpectConservation(stats);
}

TEST_F(SchedulerFaultTest, ConcurrentGroupsStressDrainToCleanFlush) {
  // Four producer threads share one scheduler + pool, each running its own
  // (cache, meter) groups under injected batch failures, deferrals and
  // embed faults — the streaming topology. Conservation must hold on the
  // lifetime totals, Flush must find nothing outstanding, and every
  // group's charges must equal a serial no-pool replay (failpoint keys are
  // group-content-derived, so interleaving cannot change verdicts).
  testing::MergeScenario scenario(/*num_objects=*/8);
  std::vector<CropRef> crops = ScenarioCrops(scenario);
  constexpr int kThreads = 4;
  constexpr int kGroupsPerThread = 4;

  fault::GlobalRegistry().SetSeed(7);
  fault::GlobalRegistry().Arm("reid.embed.batch_fail", {0.2, 0.0});
  fault::GlobalRegistry().Arm("reid.sched.defer", {0.3, 0.0});
  fault::GlobalRegistry().Arm("reid.embed", {0.1, 0.0});

  EmbedSchedulerConfig config;
  config.max_batch_size = 8;
  config.max_inflight_batches = 3;
  core::ThreadPool pool(4);
  EmbedScheduler shared{config, &pool};
  std::vector<double> elapsed(kThreads * kGroupsPerThread, 0.0);

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int g = 0; g < kGroupsPerThread; ++g) {
        // Fresh cache per group: every group embeds the full crop set, and
        // the salt varies per group exactly like per-window seeds do.
        FeatureCache cache;
        InferenceMeter meter{CostModel{}};
        std::uint64_t salt = 1009 * (t * kGroupsPerThread + g + 1);
        shared.EmbedAll(crops, cache, scenario.model(), meter, salt);
        elapsed[t * kGroupsPerThread + g] = meter.elapsed_seconds();
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  shared.Flush();
  EmbedSchedulerStats totals = shared.stats();
  EXPECT_EQ(totals.groups, kThreads * kGroupsPerThread);
  EXPECT_EQ(totals.requested,
            static_cast<std::int64_t>(crops.size()) * totals.groups);
  ExpectConservation(totals);
  EXPECT_LE(totals.peak_inflight, config.max_inflight_batches);

  // Serial replay: same salts, no pool, fresh scheduler — bit-identical
  // per-group charges, regardless of how the concurrent run interleaved.
  EmbedScheduler serial{config, nullptr};
  for (int t = 0; t < kThreads; ++t) {
    for (int g = 0; g < kGroupsPerThread; ++g) {
      FeatureCache cache;
      InferenceMeter meter{CostModel{}};
      std::uint64_t salt = 1009 * (t * kGroupsPerThread + g + 1);
      serial.EmbedAll(crops, cache, scenario.model(), meter, salt);
      EXPECT_EQ(meter.elapsed_seconds(), elapsed[t * kGroupsPerThread + g])
          << "group (" << t << ", " << g << ")";
    }
  }
}

}  // namespace
}  // namespace tmerge::reid
