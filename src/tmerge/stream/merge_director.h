#ifndef TMERGE_STREAM_MERGE_DIRECTOR_H_
#define TMERGE_STREAM_MERGE_DIRECTOR_H_

#include <cstdint>

#include "tmerge/core/mutex.h"
#include "tmerge/core/thread_annotations.h"

namespace tmerge::stream {

/// Budgets and timeouts of the admission controller. Defaults are sized
/// for the synthetic profiles (hundreds of pairs per window); bench_stream
/// and the soak tests shrink them to force backpressure on purpose.
struct MergeDirectorConfig {
  /// Ceiling on candidate pairs resident in the system: pending pairs
  /// (closed windows waiting for a merge job) plus the estimate of the
  /// ingest step asking for admission. Ingest admission is denied once
  /// this budget would be exceeded — the backpressure-before-memory-
  /// pressure contract.
  std::int64_t max_intermediate_pairs = 65536;
  /// While every merge worker is busy, a further merge job is only worth
  /// scheduling once its batch holds this many pairs (amortizes per-job
  /// overhead). A smaller batch goes as soon as a worker is idle, and any
  /// nonempty batch goes in force-flush mode.
  std::int64_t min_pairs_per_merge_job = 512;
  /// Concurrent merge jobs allowed in flight.
  std::int32_t max_inflight_merge_jobs = 8;
  /// Simulated seconds the ingest side may stay blocked on the pair
  /// budget before the director force-flushes (admits merge jobs below
  /// min_pairs_per_merge_job with every worker busy, and skips the
  /// "stream.director.defer" failpoint). An alarm, not the liveness
  /// mechanism: a blocked stream with an idle worker always has an
  /// admissible merge job, so healthy runs never trip it. <= 0 disables
  /// the watchdog (force-flush then only happens at stream end).
  double stall_timeout_seconds = 5.0;
};

/// Point-in-time view of the director's accounting, for tests and the
/// service's metrics export.
struct MergeDirectorStats {
  std::int64_t pending_pairs = 0;
  std::int64_t inflight_merge_jobs = 0;
  std::int64_t ingest_jobs_admitted = 0;
  std::int64_t ingest_jobs_deferred = 0;
  std::int64_t merge_jobs_admitted = 0;
  std::int64_t merge_jobs_deferred = 0;
  std::int64_t force_flushes = 0;
  /// The subset of force_flushes triggered by the stall watchdog (as
  /// opposed to end-of-stream): a nonzero value means ingest was wedged on
  /// the pair budget for stall_timeout_seconds of sim time — the signal
  /// StreamService's flight-recorder post-mortem dump keys on.
  std::int64_t stall_flushes = 0;
  bool force_flush = false;
};

/// Admission controller for the streaming pipeline, modeled on the
/// auto-merge director pattern (SNIPPETS.md Snippet 1): "task jobs"
/// (ingest work that closes windows and produces intermediate candidate
/// pairs) and "merge jobs" (batched ReID/selection over pending pairs)
/// compete under two budgets —
///
///   - an intermediate-pair budget: an ingest step is admitted only while
///     pending pairs plus its estimate stay within max_intermediate_pairs,
///     so the frame queues back up (visible, bounded backpressure) instead
///     of the pair pool (unbounded memory). The service runs each
///     admitted step to completion before the next probe, so the estimate
///     is headroom for that one step, not a standing reservation;
///   - an in-flight-job budget: at most max_inflight_merge_jobs merge
///     jobs run concurrently. The director is work-conserving: while
///     fewer jobs are in flight than the service has merge workers, any
///     nonempty batch is admissible; once every worker is busy, a further
///     job needs min_pairs_per_merge_job pairs — unless force-flush is
///     on, when any nonempty backlog is admissible again.
///
/// Liveness follows from that state, not from a timer: ingest is denied
/// only while pairs are pending, and with nothing in flight a pending
/// batch is admissible. Force-flush turns on at stream end
/// (OnStreamCompleted) and, as an alarm, when the ingest side has been
/// continuously deferred for stall_timeout_seconds of *simulated* time
/// (the caller passes sim-time into the admission probes; the director
/// never reads a wall clock). The alarm is also the escape path when the
/// "stream.director.defer" failpoint defers admissible jobs. It turns
/// back off as soon as ingest makes progress again mid-stream.
///
/// State machine (DESIGN.md §11):
///
///     FLOWING --budget exhausted--> BLOCKED --stall timeout--> FLUSHING
///        ^                            |                           |
///        |---- ingest admitted -------+--- pending drained -------|
///
/// Thread-safe: every method takes the internal mutex; the service calls
/// the probes from its own locked region, merge-job completions from pool
/// threads.
class MergeDirector {
 public:
  /// `merge_workers` is the number of workers that run merge jobs (the
  /// service's pool size, or 1 in serial mode): below it, an in-flight
  /// count leaves a worker idle, and a small batch is admitted.
  MergeDirector(const MergeDirectorConfig& config, std::int32_t merge_workers);

  /// True when an ingest step expected to produce `estimated_pairs` new
  /// candidate pairs may run at simulated time `now_seconds`. A denial
  /// counts as a deferral and starts (or continues) the stall clock; a
  /// denial that has lasted stall_timeout_seconds flips force-flush on.
  bool CanScheduleIngestJob(std::int64_t estimated_pairs, double now_seconds)
      TMERGE_EXCLUDES(mutex_);

  /// Adds `actual_pairs` pairs to the pending (mergeable) pool. An
  /// ingest step reports the pairs it actually produced here; they may
  /// differ from its admission estimate in either direction, as in
  /// Snippet 1's scenario.
  void OnMergeInputProcessed(std::int64_t actual_pairs)
      TMERGE_EXCLUDES(mutex_);

  /// True when a nonempty merge job over `pending_pairs` of the pool may
  /// start: the in-flight budget has room, and a worker is idle, the batch
  /// holds min_pairs_per_merge_job pairs, or force-flush is on. Denials
  /// are counted. The "stream.director.defer" failpoint, keyed by the
  /// probe ticket, forces a deferral outside force-flush to model
  /// scheduler hiccups.
  bool CanScheduleMergeJob(std::int64_t pending_pairs)
      TMERGE_EXCLUDES(mutex_);

  void OnMergeJobStarted(std::int64_t pairs_taken) TMERGE_EXCLUDES(mutex_);

  /// Completes one merge job that drained `pairs_processed` pairs from
  /// the pool; ingest may resume if the budget recovered.
  void OnMergeJobFinished(std::int64_t pairs_processed)
      TMERGE_EXCLUDES(mutex_);

  /// The stream ended: force-flush stays on until the pool is empty, so
  /// every remaining pair is merged regardless of batch-size thresholds.
  void OnStreamCompleted() TMERGE_EXCLUDES(mutex_);

  /// True while small-batch merge jobs are admissible (stream completed
  /// or stall watchdog fired).
  bool force_flush() const TMERGE_EXCLUDES(mutex_);

  MergeDirectorStats stats() const TMERGE_EXCLUDES(mutex_);

  const MergeDirectorConfig& config() const { return config_; }

  std::int32_t merge_workers() const { return merge_workers_; }

 private:
  /// Shared accounting for both admission outcomes of the ingest probe.
  void NoteIngestDeferred(double now_seconds) TMERGE_REQUIRES(mutex_);

  const MergeDirectorConfig config_;
  const std::int32_t merge_workers_;
  mutable core::Mutex mutex_;
  /// Pairs sitting in closed windows, waiting for a merge job.
  std::int64_t pending_pairs_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int32_t inflight_merge_jobs_ TMERGE_GUARDED_BY(mutex_) = 0;
  bool stream_completed_ TMERGE_GUARDED_BY(mutex_) = false;
  bool stall_flush_ TMERGE_GUARDED_BY(mutex_) = false;
  /// Sim-time when the current run of consecutive ingest deferrals
  /// started; < 0 when ingest is not blocked.
  double blocked_since_seconds_ TMERGE_GUARDED_BY(mutex_) = -1.0;
  /// Monotonic ticket per merge-admission probe; keys the
  /// "stream.director.defer" failpoint.
  std::uint64_t merge_probe_tickets_ TMERGE_GUARDED_BY(mutex_) = 0;
  // Counters (stats()).
  std::int64_t ingest_admitted_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t ingest_deferred_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t merge_admitted_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t merge_deferred_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t force_flushes_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t stall_flushes_ TMERGE_GUARDED_BY(mutex_) = 0;
};

}  // namespace tmerge::stream

#endif  // TMERGE_STREAM_MERGE_DIRECTOR_H_
