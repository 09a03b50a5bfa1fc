#include "tmerge/reid/embed_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "tmerge/core/mutex.h"
#include "tmerge/core/status.h"
#include "tmerge/fault/failpoint.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/span.h"
#include "tmerge/obs/trace.h"

namespace tmerge::reid {
namespace {

/// Salt xor applied to the single-path retry of a failed batch dispatch, so
/// the retry attempts draw "reid.embed" verdicts independently of the
/// (never executed) batched attempt — the scheduler's analogue of
/// ReidGuard's fresh-salt retries.
constexpr std::uint64_t kBatchRetrySalt = 0x5EC0ULL;

void RecordGroupObs(const EmbedSchedulerStats& group) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& requests = registry.GetCounter("reid.sched.requests");
  static obs::Counter& batches = registry.GetCounter("reid.sched.batches");
  static obs::Counter& batched_crops =
      registry.GetCounter("reid.sched.batched_crops");
  static obs::Counter& single_crops =
      registry.GetCounter("reid.sched.single_crops");
  static obs::Counter& failed_crops =
      registry.GetCounter("reid.sched.failed_crops");
  static obs::Counter& deferred = registry.GetCounter("reid.sched.deferred");
  static obs::Counter& batch_failures =
      registry.GetCounter("reid.sched.batch_failures");
  static obs::Counter& inline_dispatches =
      registry.GetCounter("reid.sched.inline");
  requests.Add(group.requested);
  batches.Add(group.batches);
  batched_crops.Add(group.batched_crops);
  single_crops.Add(group.single_crops);
  failed_crops.Add(group.failed_crops);
  deferred.Add(group.deferred_batches);
  batch_failures.Add(group.batch_failures);
  inline_dispatches.Add(group.inline_dispatches);
}

}  // namespace

/// One planned dispatch unit: a contiguous slice of the group's deduped
/// crop list plus the plan-time fault verdicts. Result slots are private to
/// the batch between dispatch and completion; `done` transfers them to the
/// committing thread under the scheduler mutex.
struct EmbedScheduler::Batch {
  std::size_t first = 0;
  std::size_t count = 0;
  /// Batched inference call (vs the single path for sub-break-even tails).
  bool batched = false;
  /// "reid.embed.batch_fail" verdict: the batched dispatch fails, crops
  /// retry individually under kBatchRetrySalt.
  bool failed = false;
  /// "reid.sched.defer" verdict: dispatched after every non-deferred batch.
  bool deferred = false;
  /// Computed on a pool worker (ever false without a pool, or when the
  /// caller is itself a worker of that pool).
  bool async = false;
  /// Compute finished; results are safe to read. Written and read under
  /// EmbedScheduler::mutex_ when async.
  bool done = false;
  std::vector<core::Result<FeatureVector>> results;
};

EmbedScheduler::EmbedScheduler(const EmbedSchedulerConfig& config,
                               core::ThreadPool* pool)
    : config_(config), pool_(pool) {
  TMERGE_CHECK(config.max_batch_size > 0);
  TMERGE_CHECK(config.max_inflight_batches > 0);
}

std::int32_t EmbedScheduler::BreakEvenBatchSize(const CostModel& model) {
  const double margin =
      model.single_inference_seconds - model.batch_item_seconds;
  if (margin <= 0.0) {
    // A batched crop is not cheaper than a single one: batching never pays,
    // so the break-even size is unreachable and everything goes single.
    return std::numeric_limits<std::int32_t>::max();
  }
  const double breakeven = std::ceil(model.batch_fixed_seconds / margin);
  if (breakeven >= static_cast<double>(
                       std::numeric_limits<std::int32_t>::max())) {
    return std::numeric_limits<std::int32_t>::max();
  }
  return std::max<std::int32_t>(1, static_cast<std::int32_t>(breakeven));
}

EmbedSchedulerStats EmbedScheduler::EmbedAll(const std::vector<CropRef>& crops,
                                             FeatureCache& cache,
                                             const ReidModel& model,
                                             InferenceMeter& meter,
                                             std::uint64_t salt) {
  EmbedSchedulerStats group;
  ++group.groups;
  group.requested = static_cast<std::int64_t>(crops.size());

  // Dedup pass: first occurrence wins, already-cached crops are skipped
  // entirely (the later consumer takes its cache hit itself — Put charges
  // nothing and the scheduler never double-counts hits into the meter).
  std::vector<CropRef> unique;
  unique.reserve(crops.size());
  {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(crops.size());
    for (const CropRef& crop : crops) {
      if (cache.Contains(crop.detection_id)) {
        ++group.cache_hits;
        continue;
      }
      if (!seen.insert(crop.detection_id).second) {
        ++group.dedup_hits;
        continue;
      }
      unique.push_back(crop);
    }
  }

  // Plan: fixed-size chunks, sub-break-even tails on the single path,
  // fault verdicts drawn per batch from group-local content so the
  // schedule is deterministic regardless of cross-camera interleave.
  const std::int32_t min_batch = BreakEvenBatchSize(meter.model());
  std::vector<Batch> plan;
  plan.reserve(unique.size() / config_.max_batch_size + 1);
  for (std::size_t first = 0; first < unique.size();
       first += static_cast<std::size_t>(config_.max_batch_size)) {
    Batch batch;
    batch.first = first;
    batch.count = std::min(static_cast<std::size_t>(config_.max_batch_size),
                           unique.size() - first);
    batch.batched = batch.count >= static_cast<std::size_t>(min_batch);
    const std::uint64_t key =
        unique[first].detection_id ^
        (static_cast<std::uint64_t>(plan.size()) << 40) ^ salt;
    batch.deferred = TMERGE_FAILPOINT("reid.sched.defer", key);
    batch.failed =
        batch.batched && TMERGE_FAILPOINT("reid.embed.batch_fail", key);
    if (batch.deferred) {
      ++group.deferred_batches;
      TMERGE_TRACE_INSTANT("reid.sched.defer", obs::kTraceNoSimTime,
                           obs::TraceArg{"batch",
                                         static_cast<std::int64_t>(
                                             plan.size())});
    }
    if (batch.failed) ++group.batch_failures;
    if (batch.batched) {
      ++group.batches;
    }
    plan.push_back(std::move(batch));
  }

  auto compute = [&unique, &model, salt](Batch& batch) {
    TMERGE_TRACE_SCOPE("reid.sched.batch", obs::kTraceNoSimTime,
                       obs::TraceArg{"crops",
                                     static_cast<std::int64_t>(batch.count)});
    const std::uint64_t attempt_salt =
        batch.failed ? (salt ^ kBatchRetrySalt) : salt;
    batch.results.reserve(batch.count);
    for (std::size_t i = 0; i < batch.count; ++i) {
      batch.results.push_back(
          model.TryEmbed(unique[batch.first + i], attempt_salt));
    }
  };

  // Dispatch: deferred batches go last (a stable partition, so the defer
  // failpoint reorders dispatch only — commit order is plan order either
  // way). Async only when a pool exists AND the caller is not one of its
  // workers: blocking on the in-flight bound from a worker could starve
  // the pool, so reentrant callers compute inline.
  std::vector<Batch*> dispatch_order;
  dispatch_order.reserve(plan.size());
  for (Batch& batch : plan) {
    if (!batch.deferred) dispatch_order.push_back(&batch);
  }
  for (Batch& batch : plan) {
    if (batch.deferred) dispatch_order.push_back(&batch);
  }

  const bool caller_is_worker = pool_ != nullptr && pool_->InWorkerThread();
  const bool use_pool = pool_ != nullptr && !caller_is_worker;
  for (Batch* batch : dispatch_order) {
    if (use_pool) {
      {
        core::MutexLock lock(mutex_);
        while (inflight_ >=
               static_cast<std::int64_t>(config_.max_inflight_batches)) {
          batch_cv_.Wait(mutex_);
        }
        ++inflight_;
        group.peak_inflight = std::max(group.peak_inflight, inflight_);
      }
      core::Status submitted = pool_->Submit([this, batch, &compute]() {
        compute(*batch);
        // Notify while still holding the mutex: the committer that this
        // wakes may destroy the scheduler as soon as it can re-acquire the
        // lock, so the condvar must not be touched after the unlock.
        core::MutexLock lock(mutex_);
        batch->done = true;
        --inflight_;
        batch_cv_.NotifyAll();
      });
      if (submitted.ok()) {
        batch->async = true;
        continue;
      }
      // Submit rejected (the "core.pool.submit" degradation path): give the
      // slot back and fall through to inline compute.
      {
        core::MutexLock lock(mutex_);
        --inflight_;
        batch_cv_.NotifyAll();
      }
      ++group.inline_dispatches;
    } else if (caller_is_worker) {
      ++group.inline_dispatches;
    }
    compute(*batch);
    batch->done = true;
  }

  // Commit: ALWAYS on the calling thread, in plan order — identical cache
  // insert and meter charge sequences whether compute ran inline or on
  // workers, which is what makes sync and async runs bit-identical.
  const CostModel& cost = meter.model();
  for (Batch& batch : plan) {
    if (batch.async) {
      core::MutexLock lock(mutex_);
      while (!batch.done) batch_cv_.Wait(mutex_);
    }
    std::int64_t successes = 0;
    for (std::size_t i = 0; i < batch.count; ++i) {
      const CropRef& crop = unique[batch.first + i];
      // Latency spikes charge at commit, mirroring the cache's fallible
      // paths (same "reid.latency" key, so schedules line up).
      const double spike = TMERGE_FAILPOINT_LATENCY(
          "reid.latency", crop.detection_id ^ salt);
      if (spike > 0.0) meter.ChargePenalty(spike);
      core::Result<FeatureVector>& result = batch.results[i];
      if (batch.batched && !batch.failed) {
        if (result.ok()) {
          cache.Put(crop.detection_id, std::move(result).value());
          ++successes;
        } else {
          meter.ChargeFailedBatchItem(1);
          ++group.failed_crops;
        }
      } else {
        // Single path: sub-break-even tails, and the per-crop retries of a
        // failed batch dispatch.
        if (result.ok()) {
          meter.ChargeSingle();
          cache.Put(crop.detection_id, std::move(result).value());
          ++group.single_crops;
        } else {
          meter.ChargeFailedSingle();
          ++group.failed_crops;
        }
      }
    }
    if (batch.batched && !batch.failed) {
      meter.ChargeBatch(successes);
      group.batched_crops += successes;
    } else if (batch.failed) {
      // The failed dispatch still spent its launch cost before erroring.
      meter.ChargePenalty(cost.batch_fixed_seconds);
    }
  }

  // Fold into lifetime totals. `outstanding` snapshots the global in-flight
  // count: this group's batches are all committed, so it is zero unless
  // concurrent groups are mid-run (and zero after Flush, always).
  {
    core::MutexLock lock(mutex_);
    totals_.groups += group.groups;
    totals_.requested += group.requested;
    totals_.cache_hits += group.cache_hits;
    totals_.dedup_hits += group.dedup_hits;
    totals_.batches += group.batches;
    totals_.batched_crops += group.batched_crops;
    totals_.single_crops += group.single_crops;
    totals_.failed_crops += group.failed_crops;
    totals_.deferred_batches += group.deferred_batches;
    totals_.batch_failures += group.batch_failures;
    totals_.inline_dispatches += group.inline_dispatches;
    totals_.peak_inflight =
        std::max(totals_.peak_inflight, group.peak_inflight);
    totals_.outstanding = inflight_;
  }
  RecordGroupObs(group);
  return group;
}

void EmbedScheduler::Flush() {
  core::MutexLock lock(mutex_);
  while (inflight_ != 0) batch_cv_.Wait(mutex_);
  totals_.outstanding = 0;
}

EmbedSchedulerStats EmbedScheduler::stats() const {
  core::MutexLock lock(mutex_);
  return totals_;
}

}  // namespace tmerge::reid
