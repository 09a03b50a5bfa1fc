// MergeDirector admission semantics, mirroring the auto-merge director
// scenario the design is modeled on (SNIPPETS.md Snippet 1): estimate-based
// ingest admission, actual counts diverging from estimates, the
// work-conserving min-batch rule, in-flight budgets, and force-flush at
// stream end / stall timeout — plus an exhaustive check over every short
// event sequence that a blocked stream with nothing in flight can always
// merge.

#include "tmerge/stream/merge_director.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tmerge/fault/registry.h"

namespace tmerge::stream {
namespace {

TEST(MergeDirectorTest, IngestBlockedByIntermediatePairBudget) {
  MergeDirectorConfig config;
  config.max_intermediate_pairs = 100;
  MergeDirector director(config, /*merge_workers=*/1);

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
  MergeDirector director(config, /*merge_workers=*/2);

  // Idle workers take small batches: two jobs fill the two workers.
  director.OnMergeInputProcessed(20);
  ASSERT_TRUE(director.CanScheduleMergeJob(10));
  director.OnMergeJobStarted(10);
  ASSERT_TRUE(director.CanScheduleMergeJob(10));
  director.OnMergeJobStarted(10);

  // Every worker busy: a batch below the threshold waits.
  director.OnMergeInputProcessed(30);
  EXPECT_FALSE(director.CanScheduleMergeJob(30));
  EXPECT_EQ(director.stats().merge_jobs_deferred, 1);

  // Once it reaches the threshold it goes anyway (the in-flight cap of 8
  // has room).
  director.OnMergeInputProcessed(30);
  EXPECT_TRUE(director.CanScheduleMergeJob(60));
  EXPECT_EQ(director.stats().merge_jobs_admitted, 3);

  // A finished job frees a worker, and the small batch goes.
  director.OnMergeJobFinished(10);
  EXPECT_TRUE(director.CanScheduleMergeJob(30));
  EXPECT_EQ(director.stats().merge_jobs_admitted, 4);
  EXPECT_EQ(director.stats().merge_jobs_deferred, 1);
}

TEST(MergeDirectorTest, ForceFlushOnStreamEndAdmitsSmallBatches) {
  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 50;
  MergeDirector director(config, /*merge_workers=*/1);

  // The one worker takes a small batch, so the next one waits...
  director.OnMergeInputProcessed(10);
  ASSERT_TRUE(director.CanScheduleMergeJob(5));
  director.OnMergeJobStarted(5);
  EXPECT_FALSE(director.CanScheduleMergeJob(5));
  EXPECT_FALSE(director.force_flush());

  // ...until the stream ends: the flush admits it with the worker still
  // busy.
  director.OnStreamCompleted();
  EXPECT_TRUE(director.force_flush());
  EXPECT_TRUE(director.CanScheduleMergeJob(5));
  EXPECT_EQ(director.stats().force_flushes, 1);

  // Idempotent: a second completion signal is not a second flush.
  director.OnStreamCompleted();
  EXPECT_EQ(director.stats().force_flushes, 1);

  // An empty batch is never worth a job, flush or not.
  EXPECT_FALSE(director.CanScheduleMergeJob(0));

  // Without the flush, finishing the job is what admits the batch.
  MergeDirector unflushed(config, /*merge_workers=*/1);
  unflushed.OnMergeInputProcessed(10);
  ASSERT_TRUE(unflushed.CanScheduleMergeJob(5));
  unflushed.OnMergeJobStarted(5);
  EXPECT_FALSE(unflushed.CanScheduleMergeJob(5));
  unflushed.OnMergeJobFinished(5);
  EXPECT_TRUE(unflushed.CanScheduleMergeJob(5));
  EXPECT_FALSE(unflushed.force_flush());
}

TEST(MergeDirectorTest, DeferredThenAdmittedAfterInflightCompletes) {
  MergeDirectorConfig config;
  config.min_pairs_per_merge_job = 1;
  config.max_inflight_merge_jobs = 1;
  MergeDirector director(config, /*merge_workers=*/1);

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
  MergeDirector director(config, /*merge_workers=*/1);

  // The one worker runs a job; a sub-threshold batch then fills the
  // budget, so ingest blocks.
  director.OnMergeInputProcessed(2);
  ASSERT_TRUE(director.CanScheduleMergeJob(2));
  director.OnMergeJobStarted(2);
  director.OnMergeInputProcessed(8);
  EXPECT_FALSE(director.CanScheduleIngestJob(5, /*now_seconds=*/10.0));
  EXPECT_FALSE(director.force_flush());
  EXPECT_FALSE(director.CanScheduleMergeJob(8));

  // Blocked for less than the timeout: still no flush.
  EXPECT_FALSE(director.CanScheduleIngestJob(5, 14.9));
  EXPECT_FALSE(director.force_flush());
  EXPECT_FALSE(director.CanScheduleMergeJob(8));

  // The watchdog fires once the deferral run reaches the timeout; the
  // sub-threshold batch becomes admissible with the worker still busy.
  EXPECT_FALSE(director.CanScheduleIngestJob(5, 15.0));
  EXPECT_TRUE(director.force_flush());
  EXPECT_TRUE(director.CanScheduleMergeJob(8));
  EXPECT_EQ(director.stats().force_flushes, 1);
  EXPECT_EQ(director.stats().stall_flushes, 1);

  // Merging drains the pool; ingest flows again and the watchdog flush
  // switches back off (unlike the end-of-stream flush).
  director.OnMergeJobStarted(8);
  director.OnMergeJobFinished(2);
  director.OnMergeJobFinished(8);
  EXPECT_TRUE(director.CanScheduleIngestJob(5, 15.1));
  EXPECT_FALSE(director.force_flush());

  // Blocked again behind a busy worker, the batch goes as soon as the
  // worker finishes: no timer involved.
  director.OnMergeInputProcessed(2);
  ASSERT_TRUE(director.CanScheduleMergeJob(2));
  director.OnMergeJobStarted(2);
  director.OnMergeInputProcessed(8);
  EXPECT_FALSE(director.CanScheduleIngestJob(5, 16.0));
  EXPECT_FALSE(director.CanScheduleMergeJob(8));
  director.OnMergeJobFinished(2);
  EXPECT_TRUE(director.CanScheduleMergeJob(8));
  EXPECT_FALSE(director.force_flush());
  EXPECT_EQ(director.stats().stall_flushes, 1);
}

TEST(MergeDirectorTest, ZeroStreamsCompleteImmediately) {
  // A director over an empty stream set: completion with nothing pending
  // is legal and admits nothing.
  MergeDirector director(MergeDirectorConfig{}, /*merge_workers=*/1);
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
  MergeDirector director(config, /*merge_workers=*/1);
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

TEST(MergeDirectorDeathTest, NonPositiveWorkerCountAborts) {
  EXPECT_DEATH(MergeDirector(MergeDirectorConfig{}, 0), "TMERGE_CHECK");
}

// --- Exhaustive small-state model check ---------------------------------
//
// Every sequence of at most kModelDepth events is replayed on a fresh
// director. The events are the service's calls, each enabled where the
// service could make it. min_pairs_per_merge_job is above the whole pair
// budget, as one camera's job is below it on the stream workloads, so a
// threshold alone never admits a job mid-stream.

enum class ModelEvent : std::uint8_t {
  kIngestProbe,      // CanScheduleIngestJob; sim time then advances
  kInput,            // OnMergeInputProcessed: a window closed
  kMergeProbe,       // CanScheduleMergeJob over one window's pairs
  kJobStart,         // OnMergeJobStarted for the admitted job
  kJobFinish,        // OnMergeJobFinished for a running job
  kStreamCompleted,  // OnStreamCompleted
};

constexpr ModelEvent kModelEvents[] = {
    ModelEvent::kIngestProbe, ModelEvent::kInput,
    ModelEvent::kMergeProbe,  ModelEvent::kJobStart,
    ModelEvent::kJobFinish,   ModelEvent::kStreamCompleted,
};

const char* ModelEventName(ModelEvent event) {
  switch (event) {
    case ModelEvent::kIngestProbe: return "ingest-probe";
    case ModelEvent::kInput: return "input";
    case ModelEvent::kMergeProbe: return "merge-probe";
    case ModelEvent::kJobStart: return "job-start";
    case ModelEvent::kJobFinish: return "job-finish";
    case ModelEvent::kStreamCompleted: return "stream-completed";
  }
  return "?";
}

constexpr std::size_t kModelDepth = 9;
constexpr std::int64_t kModelEstimate = 3;
constexpr std::int64_t kModelWindowPairs = 3;
constexpr double kModelProbeStepSeconds = 1.0;

MergeDirectorConfig ModelBudgets() {
  MergeDirectorConfig config;
  config.max_intermediate_pairs = 8;
  config.min_pairs_per_merge_job = 16;
  config.max_inflight_merge_jobs = 2;
  config.stall_timeout_seconds = 2.0;
  return config;
}

/// One replayed state: the director plus the service-side bookkeeping that
/// decides which events are enabled.
struct ModelState {
  explicit ModelState(std::int32_t workers)
      : director(ModelBudgets(), workers) {}

  MergeDirector director;
  double now_seconds = 0.0;
  /// Batch of the job the last merge probe admitted, not started yet.
  std::int64_t admitted_batch = 0;
  std::vector<std::int64_t> running;
  bool completed = false;

  std::int64_t pending() const { return director.stats().pending_pairs; }

  bool Enabled(ModelEvent event) const {
    switch (event) {
      case ModelEvent::kIngestProbe:
      case ModelEvent::kInput:
        return true;
      case ModelEvent::kMergeProbe:
        return admitted_batch == 0 && pending() > 0;
      case ModelEvent::kJobStart:
        return admitted_batch > 0;
      case ModelEvent::kJobFinish:
        return !running.empty();
      case ModelEvent::kStreamCompleted:
        return !completed;
    }
    return false;
  }

  void Apply(ModelEvent event) {
    switch (event) {
      case ModelEvent::kIngestProbe:
        director.CanScheduleIngestJob(kModelEstimate, now_seconds);
        now_seconds += kModelProbeStepSeconds;
        break;
      case ModelEvent::kInput:
        director.OnMergeInputProcessed(kModelWindowPairs);
        break;
      case ModelEvent::kMergeProbe: {
        const std::int64_t batch = std::min(pending(), kModelWindowPairs);
        if (director.CanScheduleMergeJob(batch)) admitted_batch = batch;
        break;
      }
      case ModelEvent::kJobStart:
        director.OnMergeJobStarted(admitted_batch);
        running.push_back(admitted_batch);
        admitted_batch = 0;
        break;
      case ModelEvent::kJobFinish:
        director.OnMergeJobFinished(running.back());
        running.pop_back();
        break;
      case ModelEvent::kStreamCompleted:
        director.OnStreamCompleted();
        completed = true;
        break;
    }
  }
};

using ModelPath = std::vector<ModelEvent>;

std::string Describe(const ModelPath& path) {
  std::string out = "[";
  for (ModelEvent event : path) {
    if (out.size() > 1) out += ", ";
    out += ModelEventName(event);
  }
  return out + "]";
}

/// Replays every event sequence of at most kModelDepth enabled events and
/// hands each reached state to `check`, which may probe it further (the
/// state is discarded afterwards). Stops at the first state `check`
/// rejects. Returns the number of states checked.
std::int64_t ForEachReachableState(
    std::int32_t workers,
    const std::function<bool(ModelState&, const ModelPath&)>& check) {
  ModelPath path;
  std::int64_t visited = 0;
  bool stop = false;
  std::function<void()> visit = [&] {
    ModelState state(workers);
    for (ModelEvent event : path) state.Apply(event);
    std::vector<ModelEvent> enabled;
    for (ModelEvent event : kModelEvents) {
      if (state.Enabled(event)) enabled.push_back(event);
    }
    ++visited;
    if (!check(state, path)) {
      stop = true;
      return;
    }
    if (path.size() == kModelDepth) return;
    for (ModelEvent event : enabled) {
      path.push_back(event);
      visit();
      path.pop_back();
      if (stop) return;
    }
  };
  visit();
  return visited;
}

/// Ingest denied, nothing in flight, pairs pending: the state a
/// threshold-only director wedges in until its watchdog fires.
bool BlockedWithNothingInFlight(const MergeDirectorStats& stats) {
  return stats.pending_pairs + kModelEstimate >
             ModelBudgets().max_intermediate_pairs &&
         stats.inflight_merge_jobs == 0 && stats.pending_pairs > 0;
}

class MergeDirectorModelTest : public ::testing::TestWithParam<std::int32_t> {
 protected:
  void SetUp() override { fault::GlobalRegistry().Reset(); }
  void TearDown() override {
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }
};

// Liveness from state, failpoints off: in no reachable state is ingest
// denied with nothing in flight and pairs pending while a merge probe is
// denied.
TEST_P(MergeDirectorModelTest, BlockedStreamWithNothingInFlightCanMerge) {
  std::int64_t blocked = 0;
  const std::int64_t visited = ForEachReachableState(
      GetParam(), [&](ModelState& state, const ModelPath& path) {
        const MergeDirectorStats stats = state.director.stats();
        if (!BlockedWithNothingInFlight(stats)) return true;
        ++blocked;
        for (std::int64_t batch = 1; batch <= stats.pending_pairs; ++batch) {
          if (!state.director.CanScheduleMergeJob(batch)) {
            ADD_FAILURE() << "blocked stream cannot merge after "
                          << Describe(path) << ": pending "
                          << stats.pending_pairs << ", batch " << batch;
            return false;
          }
        }
        return true;
      });
  // Guards against a vacuous pass: the search is not trivial, and it
  // reaches the blocked state the invariant is about.
  EXPECT_GT(visited, 10000);
  EXPECT_GT(blocked, 0);
}

// The worker rule itself: while fewer than W jobs run, every nonempty
// batch is admitted (the cap of 2 is never below W here).
TEST_P(MergeDirectorModelTest, IdleWorkerAdmitsAnyBatch) {
  const std::int32_t workers = GetParam();
  std::int64_t idle = 0;
  ForEachReachableState(workers, [&](ModelState& state,
                                     const ModelPath& path) {
    const MergeDirectorStats stats = state.director.stats();
    if (stats.pending_pairs == 0 || stats.inflight_merge_jobs >= workers) {
      return true;
    }
    ++idle;
    for (std::int64_t batch = 1; batch <= stats.pending_pairs; ++batch) {
      if (!state.director.CanScheduleMergeJob(batch)) {
        ADD_FAILURE() << "idle worker left idle after " << Describe(path)
                      << ": pending " << stats.pending_pairs
                      << ", in flight " << stats.inflight_merge_jobs
                      << ", batch " << batch;
        return false;
      }
    }
    return true;
  });
  EXPECT_GT(idle, 0);
}

// With the "stream.director.defer" failpoint deferring every admissible
// job, the stall watchdog is the escape path: from every reachable blocked
// state with nothing in flight, ingest probes spanning the stall timeout
// turn force-flush on, and the flush admits a job.
TEST_P(MergeDirectorModelTest, WatchdogFlushEscapesTheDeferFailpoint) {
  fault::GlobalRegistry().SetSeed(11);
  ASSERT_TRUE(
      fault::GlobalRegistry().ApplySpec("stream.director.defer=1.0").ok());
  const std::int32_t workers = GetParam();
  const int probes_to_alarm =
      static_cast<int>(std::ceil(ModelBudgets().stall_timeout_seconds /
                                 kModelProbeStepSeconds)) +
      1;
  std::int64_t deferred_with_idle_worker = 0;
  std::int64_t escapes = 0;
  ForEachReachableState(workers, [&](ModelState& state,
                                     const ModelPath& path) {
    const MergeDirectorStats stats = state.director.stats();
    if (stats.pending_pairs > 0 && stats.inflight_merge_jobs < workers &&
        !stats.force_flush && !state.director.CanScheduleMergeJob(1)) {
      ++deferred_with_idle_worker;
    }
    if (!BlockedWithNothingInFlight(stats)) return true;
    for (int i = 0; i < probes_to_alarm; ++i) {
      state.Apply(ModelEvent::kIngestProbe);
    }
    const std::int64_t batch = std::min(stats.pending_pairs, kModelWindowPairs);
    if (!state.director.force_flush() ||
        !state.director.CanScheduleMergeJob(batch)) {
      ADD_FAILURE() << "no flush escape after " << Describe(path)
                    << " and " << probes_to_alarm << " ingest probes";
      return false;
    }
    ++escapes;
    return true;
  });
  // The failpoint did defer admissible jobs, so the flush was needed.
  EXPECT_GT(deferred_with_idle_worker, 0);
  EXPECT_GT(escapes, 0);
}

INSTANTIATE_TEST_SUITE_P(Workers, MergeDirectorModelTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace tmerge::stream
