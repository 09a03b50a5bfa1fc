#ifndef TMERGE_REID_EMBED_SCHEDULER_H_
#define TMERGE_REID_EMBED_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "tmerge/core/mutex.h"
#include "tmerge/core/thread_annotations.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/reid_model.h"

namespace tmerge::reid {

/// Knobs of the batched embed scheduler.
struct EmbedSchedulerConfig {
  /// Hard cap on crops per batched inference call.
  std::int32_t max_batch_size = 64;
  /// Bound on batches dispatched but not yet completed when running
  /// asynchronously on a thread pool. Dispatch blocks (on the scheduler's
  /// own condvar, never in a pool worker) once the bound is reached, so
  /// queued work — and the private result slots backing it — stays bounded
  /// no matter how many crops one group requests.
  std::int32_t max_inflight_batches = 4;
};

/// Counters of one EmbedAll group and, accumulated, of the scheduler's
/// lifetime. The conservation identity
///   requested == cache_hits + dedup_hits + embedded + failed_crops
/// (embedded = batched_crops + single_crops) holds for every group and for
/// the lifetime totals — the "no lost or duplicated requests" invariant
/// the scheduler fault suite pins.
struct EmbedSchedulerStats {
  std::int64_t groups = 0;
  std::int64_t requested = 0;
  /// Requests skipped because the feature was already cached.
  std::int64_t cache_hits = 0;
  /// Requests skipped as duplicates of an earlier crop in the same group.
  std::int64_t dedup_hits = 0;
  std::int64_t batches = 0;
  std::int64_t batched_crops = 0;
  std::int64_t single_crops = 0;
  std::int64_t failed_crops = 0;
  /// Batches whose dispatch the "reid.sched.defer" failpoint pushed to the
  /// back of the dispatch queue (commit order is unaffected).
  std::int64_t deferred_batches = 0;
  /// Whole-batch dispatch failures injected by "reid.embed.batch_fail";
  /// the batch's crops are retried on the single path.
  std::int64_t batch_failures = 0;
  /// Compute tasks run inline because ThreadPool::Submit rejected them
  /// (the "core.pool.submit" failpoint's degradation path) or because the
  /// caller was itself a pool worker.
  std::int64_t inline_dispatches = 0;
  /// High-water mark of concurrently in-flight batches.
  std::int64_t peak_inflight = 0;
  /// Batches dispatched but not yet committed. Always zero at the end of
  /// every EmbedAll and after Flush() — the clean end-of-stream invariant.
  std::int64_t outstanding = 0;
};

/// Coalesces embed requests into CostModel-optimal batched inference
/// calls, optionally computing them asynchronously on a core::ThreadPool.
///
/// One EmbedAll call is a *group*: an ordered list of crops bound for one
/// (FeatureCache, ReidModel, InferenceMeter) triple — one video or camera,
/// matching the cache's thread-confinement contract. The group is deduped
/// (first occurrence wins, cache hits skipped), planned into batches of at
/// most max_batch_size (a tail below the break-even size takes the
/// single-inference path), dispatched, and committed:
///
///   - Compute phase: ReidModel::TryEmbed per crop into a private slot per
///     batch. With a pool, batches are submitted as tasks under the
///     in-flight bound; without one — or when called from a worker of that
///     same pool, where blocking on the bound could starve the pool — the
///     batch computes inline on the calling thread.
///   - Commit phase: ALWAYS on the calling thread, in plan order — cache
///     inserts (FeatureCache::Put) and meter charges happen in the same
///     deterministic sequence whether the compute ran inline or on
///     workers, which is what makes sync and async runs bit-identical in
///     results, charges and stats (pinned by embed_scheduler_test.cc).
///
/// Fault surface (fault/failpoint.h): "reid.embed" fires per crop inside
/// TryEmbed exactly as on the unscheduled paths; "reid.embed.batch_fail"
/// fails a whole batch dispatch — the launch cost is charged as a penalty
/// and the crops retry individually on the single path under a fresh
/// salt; "reid.sched.defer" defers a batch's dispatch behind the rest of
/// the group. All three are keyed by group-local content (first detection
/// id, batch index, salt), so the schedule is deterministic regardless of
/// how groups interleave across cameras. "reid.latency" spikes are charged
/// per embedded crop at commit, mirroring the cache's fallible paths.
///
/// Thread-safety: the scheduler object is shared across concurrent groups
/// (streaming merge jobs of different cameras); one mutex guards the
/// counters and the in-flight bound. The cache and meter of a group are
/// only ever touched by that group's calling thread.
class EmbedScheduler {
 public:
  explicit EmbedScheduler(const EmbedSchedulerConfig& config,
                          core::ThreadPool* pool = nullptr);

  EmbedScheduler(const EmbedScheduler&) = delete;
  EmbedScheduler& operator=(const EmbedScheduler&) = delete;

  /// Embeds every uncached crop of `crops` into `cache`, charging `meter`.
  /// Returns the group's own stats (also folded into the lifetime stats).
  /// `salt` decorrelates fault verdicts across repeated runs, exactly like
  /// the FeatureCache::TryGetOrEmbed salt.
  EmbedSchedulerStats EmbedAll(const std::vector<CropRef>& crops,
                               FeatureCache& cache, const ReidModel& model,
                               InferenceMeter& meter, std::uint64_t salt = 0)
      TMERGE_EXCLUDES(mutex_);

  /// Blocks until no batch is in flight. EmbedAll is synchronous, so this
  /// returns immediately unless concurrent groups are mid-run; the
  /// end-of-stream force-flush calls it to assert a clean drain.
  void Flush() TMERGE_EXCLUDES(mutex_);

  /// Lifetime totals across all groups.
  EmbedSchedulerStats stats() const TMERGE_EXCLUDES(mutex_);

  const EmbedSchedulerConfig& config() const { return config_; }

  /// The break-even batch size for `model`: batches below it run on the
  /// single-inference path, because a batch launch only pays off past it.
  /// ceil(batch_fixed / (single - batch_item)), clamped to at least 1;
  /// unreachable (INT32_MAX) when a batched crop is not cheaper than a
  /// single one, so every crop goes single. Exposed for tests and the
  /// planning docs in DESIGN.md §14.
  static std::int32_t BreakEvenBatchSize(const CostModel& model);

 private:
  struct Batch;

  const EmbedSchedulerConfig config_;
  core::ThreadPool* const pool_;

  mutable core::Mutex mutex_;
  core::CondVar batch_cv_;
  EmbedSchedulerStats totals_ TMERGE_GUARDED_BY(mutex_);
  std::int64_t inflight_ TMERGE_GUARDED_BY(mutex_) = 0;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_EMBED_SCHEDULER_H_
