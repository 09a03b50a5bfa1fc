#include "tmerge/stream/merge_director.h"

#include "tmerge/core/mutex.h"
#include "tmerge/core/status.h"
#include "tmerge/fault/failpoint.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/span.h"

namespace tmerge::stream {

namespace {

obs::Counter& DirectorCounter(const char* name) {
  return obs::DefaultRegistry().GetCounter(name);
}

}  // namespace

MergeDirector::MergeDirector(const MergeDirectorConfig& config,
                             std::int32_t merge_workers)
    : config_(config), merge_workers_(merge_workers) {
  TMERGE_CHECK(config_.max_intermediate_pairs > 0);
  TMERGE_CHECK(config_.min_pairs_per_merge_job > 0);
  TMERGE_CHECK(config_.max_inflight_merge_jobs > 0);
  TMERGE_CHECK(merge_workers_ > 0);
}

void MergeDirector::NoteIngestDeferred(double now_seconds) {
  ++ingest_deferred_;
  static obs::Counter& deferred =
      DirectorCounter("stream.director.ingest_deferred");
  deferred.Add();
  TMERGE_TRACE_INSTANT("stream.director.ingest_defer", now_seconds);
  if (blocked_since_seconds_ < 0.0) {
    blocked_since_seconds_ = now_seconds;
    return;
  }
  if (config_.stall_timeout_seconds > 0.0 && !stall_flush_ &&
      now_seconds - blocked_since_seconds_ >= config_.stall_timeout_seconds) {
    stall_flush_ = true;
    ++force_flushes_;
    ++stall_flushes_;
    static obs::Counter& flushes =
        DirectorCounter("stream.director.force_flushes");
    flushes.Add();
    TMERGE_TRACE_INSTANT("stream.director.force_flush", now_seconds,
                         {"stall", 1});
  }
}

bool MergeDirector::CanScheduleIngestJob(std::int64_t estimated_pairs,
                                         double now_seconds) {
  core::MutexLock lock(mutex_);
  if (pending_pairs_ + estimated_pairs > config_.max_intermediate_pairs) {
    NoteIngestDeferred(now_seconds);
    return false;
  }
  ++ingest_admitted_;
  // Ingest flows again: the stall clock resets and a watchdog-triggered
  // flush (unlike the end-of-stream one) switches back off.
  blocked_since_seconds_ = -1.0;
  stall_flush_ = false;
  return true;
}

void MergeDirector::OnMergeInputProcessed(std::int64_t actual_pairs) {
  core::MutexLock lock(mutex_);
  pending_pairs_ += actual_pairs;
}

bool MergeDirector::CanScheduleMergeJob(std::int64_t pending_pairs) {
  core::MutexLock lock(mutex_);
  std::uint64_t ticket = merge_probe_tickets_++;
  if (pending_pairs <= 0) return false;
  bool deferred = false;
  if (inflight_merge_jobs_ >= config_.max_inflight_merge_jobs) {
    deferred = true;
  } else if (!(stream_completed_ || stall_flush_)) {
    if (pending_pairs < config_.min_pairs_per_merge_job &&
        inflight_merge_jobs_ >= merge_workers_) {
      // Every worker is busy: a small batch waits and grows meanwhile.
      deferred = true;
    } else if (TMERGE_FAILPOINT("stream.director.defer", ticket)) {
      // Injected scheduler hiccup: a job that was admissible is deferred
      // anyway, exercising the retry/backpressure path. Never consulted in
      // force-flush mode — the stall watchdog is the escape path from
      // these deferrals, so even a 100%-probability spec cannot wedge the
      // stream or Finish.
      deferred = true;
    }
  }
  if (deferred) {
    ++merge_deferred_;
    static obs::Counter& deferred_counter =
        DirectorCounter("stream.director.merge_deferred");
    deferred_counter.Add();
    TMERGE_TRACE_INSTANT("stream.director.merge_defer",
                         obs::kTraceNoSimTime, {"pairs", pending_pairs});
    return false;
  }
  ++merge_admitted_;
  static obs::Counter& admitted_counter =
      DirectorCounter("stream.director.merge_admitted");
  admitted_counter.Add();
  return true;
}

void MergeDirector::OnMergeJobStarted(std::int64_t pairs_taken) {
  core::MutexLock lock(mutex_);
  ++inflight_merge_jobs_;
  pending_pairs_ -= pairs_taken;
  if (pending_pairs_ < 0) pending_pairs_ = 0;
}

void MergeDirector::OnMergeJobFinished(std::int64_t pairs_processed) {
  (void)pairs_processed;
  core::MutexLock lock(mutex_);
  --inflight_merge_jobs_;
  if (inflight_merge_jobs_ < 0) inflight_merge_jobs_ = 0;
}

void MergeDirector::OnStreamCompleted() {
  core::MutexLock lock(mutex_);
  if (!stream_completed_) {
    stream_completed_ = true;
    ++force_flushes_;
    static obs::Counter& flushes =
        DirectorCounter("stream.director.force_flushes");
    flushes.Add();
    TMERGE_TRACE_INSTANT("stream.director.force_flush",
                         obs::kTraceNoSimTime, {"stall", 0});
  }
}

bool MergeDirector::force_flush() const {
  core::MutexLock lock(mutex_);
  return stream_completed_ || stall_flush_;
}

MergeDirectorStats MergeDirector::stats() const {
  core::MutexLock lock(mutex_);
  MergeDirectorStats stats;
  stats.pending_pairs = pending_pairs_;
  stats.inflight_merge_jobs = inflight_merge_jobs_;
  stats.ingest_jobs_admitted = ingest_admitted_;
  stats.ingest_jobs_deferred = ingest_deferred_;
  stats.merge_jobs_admitted = merge_admitted_;
  stats.merge_jobs_deferred = merge_deferred_;
  stats.force_flushes = force_flushes_;
  stats.stall_flushes = stall_flushes_;
  stats.force_flush = stream_completed_ || stall_flush_;
  return stats;
}

}  // namespace tmerge::stream
