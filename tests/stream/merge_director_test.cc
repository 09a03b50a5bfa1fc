// MergeDirector admission semantics, mirroring the auto-merge director
// scenario the design is modeled on (SNIPPETS.md Snippet 1): estimate-based
// ingest admission, actual counts diverging from estimates, min-batch
// merge thresholds, in-flight budgets, and force-flush at stream end /
// stall timeout.

#include "tmerge/stream/merge_director.h"

#include <gtest/gtest.h>

#include "tmerge/fault/registry.h"

namespace tmerge::stream {
namespace {

TEST(MergeDirectorTest, IngestBlockedByIntermediatePairBudget) {
  MergeDirectorConfig config;
  config.max_intermediate_pairs = 100;
  MergeDirector director(config);

  // An estimate that fits the empty pool is admitted.
  EXPECT_TRUE(director.CanScheduleIngestJob(60, /*now_seconds=*/0.0));

  // The step lands 40 actual pairs (less than its estimate, as in the
  // snippet's scenario).
  director.OnMergeInputProcessed(40);
  EXPECT_EQ(director.stats().pending_pairs, 40);

  // Pending pairs count against the budget: 40 + 61 > 100.
  EXPECT_FALSE(director.CanScheduleIngestJob(61, 0.2));
  EXPECT_EQ(director.stats().ingest_jobs_deferred, 1);
  EXPECT_TRUE(director.CanScheduleIngestJob(60, 0.3));
}

TEST(MergeDirectorTest, MergeDeferredUntilMinBatchAccumulates) {
  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 50;
  MergeDirector director(config);

  director.OnMergeInputProcessed(30);
  EXPECT_FALSE(director.CanScheduleMergeJob(30));
  EXPECT_EQ(director.stats().merge_jobs_deferred, 1);

  director.OnMergeInputProcessed(30);
  EXPECT_TRUE(director.CanScheduleMergeJob(60));
  EXPECT_EQ(director.stats().merge_jobs_admitted, 1);
}

TEST(MergeDirectorTest, ForceFlushOnStreamEndAdmitsSmallBatches) {
  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 50;
  MergeDirector director(config);

  director.OnMergeInputProcessed(5);
  EXPECT_FALSE(director.CanScheduleMergeJob(5));
  EXPECT_FALSE(director.force_flush());

  director.OnStreamCompleted();
  EXPECT_TRUE(director.force_flush());
  EXPECT_TRUE(director.CanScheduleMergeJob(5));
  EXPECT_EQ(director.stats().force_flushes, 1);

  // Idempotent: a second completion signal is not a second flush.
  director.OnStreamCompleted();
  EXPECT_EQ(director.stats().force_flushes, 1);

  // An empty batch is never worth a job, flush or not.
  EXPECT_FALSE(director.CanScheduleMergeJob(0));
}

TEST(MergeDirectorTest, DeferredThenAdmittedAfterInflightCompletes) {
  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 1;
  config.max_inflight_merge_jobs = 1;
  MergeDirector director(config);

  director.OnMergeInputProcessed(10);
  ASSERT_TRUE(director.CanScheduleMergeJob(10));
  director.OnMergeJobStarted(10);
  EXPECT_EQ(director.stats().pending_pairs, 0);
  EXPECT_EQ(director.stats().inflight_merge_jobs, 1);

  // More input arrives while the slot is taken: deferred.
  director.OnMergeInputProcessed(10);
  EXPECT_FALSE(director.CanScheduleMergeJob(10));
  EXPECT_EQ(director.stats().merge_jobs_deferred, 1);

  // Completion frees the slot and the deferred batch goes through.
  director.OnMergeJobFinished(10);
  EXPECT_TRUE(director.CanScheduleMergeJob(10));
}

TEST(MergeDirectorTest, StallTimeoutForcesFlushAndIngestProgressClearsIt) {
  MergeDirectorConfig config;
  config.max_intermediate_pairs = 10;
  config.min_pairs_per_merge_job = 100;
  config.stall_timeout_seconds = 5.0;
  MergeDirector director(config);

  // Fill the budget so ingest blocks with a sub-threshold pending pool.
  director.OnMergeInputProcessed(8);
  EXPECT_FALSE(director.CanScheduleIngestJob(5, /*now_seconds=*/10.0));
  EXPECT_FALSE(director.force_flush());
  EXPECT_FALSE(director.CanScheduleMergeJob(8));

  // Blocked for less than the timeout: still no flush.
  EXPECT_FALSE(director.CanScheduleIngestJob(5, 14.9));
  EXPECT_FALSE(director.force_flush());

  // The watchdog fires once the deferral run reaches the timeout; the
  // sub-threshold batch becomes admissible.
  EXPECT_FALSE(director.CanScheduleIngestJob(5, 15.0));
  EXPECT_TRUE(director.force_flush());
  EXPECT_TRUE(director.CanScheduleMergeJob(8));
  EXPECT_EQ(director.stats().force_flushes, 1);

  // Merging drains the pool; ingest flows again and the watchdog flush
  // switches back off (unlike the end-of-stream flush).
  director.OnMergeJobStarted(8);
  director.OnMergeJobFinished(8);
  EXPECT_TRUE(director.CanScheduleIngestJob(5, 15.1));
  EXPECT_FALSE(director.force_flush());
}

TEST(MergeDirectorTest, ZeroStreamsCompleteImmediately) {
  // A director over an empty stream set: completion with nothing pending
  // is legal and admits nothing.
  MergeDirector director(MergeDirectorConfig{});
  director.OnStreamCompleted();
  EXPECT_TRUE(director.force_flush());
  EXPECT_FALSE(director.CanScheduleMergeJob(0));
  MergeDirectorStats stats = director.stats();
  EXPECT_EQ(stats.pending_pairs, 0);
  EXPECT_EQ(stats.merge_jobs_admitted, 0);
}

TEST(MergeDirectorTest, DeferFailpointForcesDeferralButNeverWedgesFlush) {
  fault::GlobalRegistry().Reset();
  fault::GlobalRegistry().SetSeed(11);
  ASSERT_TRUE(
      fault::GlobalRegistry().ApplySpec("stream.director.defer=1.0").ok());

  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 1;
  MergeDirector director(config);
  director.OnMergeInputProcessed(100);

  // Mid-stream, the armed failpoint defers every otherwise-admissible job.
  EXPECT_FALSE(director.CanScheduleMergeJob(100));
  EXPECT_FALSE(director.CanScheduleMergeJob(100));
  EXPECT_EQ(director.stats().merge_jobs_deferred, 2);

  // Force-flush is the liveness path: the failpoint is not consulted, so
  // even probability 1.0 cannot stall the drain.
  director.OnStreamCompleted();
  EXPECT_TRUE(director.CanScheduleMergeJob(100));

  fault::GlobalRegistry().Reset();
  fault::GlobalRegistry().SetSeed(0);
}

}  // namespace
}  // namespace tmerge::stream
