#ifndef TMERGE_STREAM_STREAM_SERVICE_H_
#define TMERGE_STREAM_STREAM_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "tmerge/core/mutex.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/core/thread_annotations.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/selector.h"
#include "tmerge/merge/window.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/reid_model.h"
#include "tmerge/stream/merge_director.h"
#include "tmerge/track/sort_tracker.h"
#include "tmerge/track/track.h"

namespace tmerge::stream {

/// Configuration of the long-running ingestion service.
struct StreamServiceConfig {
  MergeDirectorConfig director;
  /// Windowing applied per camera (the same knobs as the batch pipeline).
  merge::WindowConfig window;
  /// Selector options shared by every merge job. Per-window seeds come
  /// from merge::WindowSeed, as in merge::EvaluateSelector, which is what
  /// makes streamed SelectionResults bit-identical to the batch pipeline's.
  merge::SelectorOptions selector;
  /// Merge-job workers: 0 = hardware_concurrency, 1 = run merge jobs
  /// inline on the ingesting thread (the serial reference path; results
  /// are identical either way, per the repo-wide threading convention).
  /// The director admits small merge jobs while fewer than this many are
  /// in flight (MergeDirector's merge_workers).
  int num_threads = 1;
  /// Bound on frames buffered per camera awaiting ingest admission. A
  /// full buffer surfaces as IngestOutcome::kBackpressure to the caller —
  /// the knob that keeps ingest memory bounded when the director defers.
  std::int32_t max_queued_frames_per_camera = 256;
  /// Headroom an ingest step needs: a frame is admitted while pending
  /// pairs plus this estimate fit the director's max_intermediate_pairs
  /// (frames mostly close no window, so this is a small smoothing
  /// constant, not a per-window pair count). Clamped to the intermediate
  /// budget so a misconfiguration can never wedge admission permanently.
  std::int64_t ingest_pair_estimate = 16;
  /// When non-empty and the flight recorder is capturing
  /// (obs::TraceRecorder::Default().recording()), the first stall-watchdog
  /// force-flush writes a Chrome-trace post-mortem — the recorder's most
  /// recent events per thread — to this path, once per service. The write
  /// happens outside the service mutex; an I/O failure warns on stderr and
  /// is otherwise ignored (post-mortems must never take the service down).
  std::string stall_post_mortem_path;
  /// When true the service owns a reid::EmbedScheduler bound to its own
  /// pool and injects it into every merge job's SelectorOptions
  /// (embed_scheduler), so a gated selector with prefetch_ambiguous
  /// coalesces embed requests across windows and cameras. Finish drains
  /// the scheduler (Flush) before building the result. Off by default:
  /// without it selector options pass through untouched, preserving the
  /// ungated bit-identity contract.
  bool enable_embed_scheduler = false;
  reid::EmbedSchedulerConfig embed_scheduler;
};

/// One camera's stream registration.
struct CameraConfig {
  std::int32_t num_frames = 0;
  double frame_width = 0.0;
  double frame_height = 0.0;
  double fps = 30.0;
  track::SortConfig sort;
  /// ReID model embedding this camera's crops (per-camera, like the batch
  /// pipeline's per-video SyntheticReidModel). Shared-ptr because merge
  /// jobs hold it across scheduling points; must be safely callable from
  /// concurrent jobs of *other* cameras (all shipped models are).
  std::shared_ptr<const reid::ReidModel> model;
};

/// Verdict of one IngestFrame call.
enum class IngestOutcome : std::uint8_t {
  /// Frame accepted (buffered; processed as admission allows).
  kAccepted = 0,
  /// Camera buffer full — admission control has ingest blocked. Retry
  /// after sim-time advances (merge completions drain the backlog).
  kBackpressure = 1,
  /// The "stream.camera.drop_frame" failpoint dropped the frame in
  /// transport: its detections are lost (an empty frame advances the
  /// tracker clock instead), modeling camera outage / network loss.
  kDropped = 2,
  /// Unknown camera id or the camera's stream was already closed.
  kRejected = 3,
};

/// Everything the service accumulated for one camera. The WorkTally base
/// is folded in window order (the same floating-point accumulation order
/// as the batch EvaluateSelector, so SameWork against the batch
/// EvalResult holds bit for bit).
struct CameraStreamResult : merge::WorkTally {
  std::int32_t camera_id = 0;
  /// Dedup-sorted union of selected candidates across the camera's
  /// windows — elementwise equal to the batch EvalResult::candidates for
  /// the same video, selector and seeds.
  std::vector<metrics::TrackPairKey> candidates;
  std::int64_t frames_ingested = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t tracks_finalized = 0;
  /// Per merged window, in window order: sim-seconds from the window
  /// becoming closable to its merge job being admitted, plus the
  /// simulated selection time of the window itself — the service-side
  /// window-close latency bench_stream reports the p99 of.
  std::vector<double> window_close_latency_seconds;
};

/// Aggregated outcome of a whole streaming session. The WorkTally base is
/// the ordered reduction over cameras (camera order, then window order) —
/// the batch EvaluateDataset accumulation sequence.
struct StreamResult : merge::WorkTally {
  std::vector<CameraStreamResult> cameras;
  std::int64_t frames_ingested = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t tracks_finalized = 0;
  /// IngestFrame calls bounced with kBackpressure.
  std::int64_t backpressure_events = 0;
  /// High-water mark of frames buffered across all cameras.
  std::int64_t peak_queued_frames = 0;
  std::int64_t merge_jobs_run = 0;
  /// Merge jobs that ran inline because ThreadPool::Submit rejected them
  /// (the "core.pool.submit" failpoint's degradation path).
  std::int64_t merge_jobs_inline_fallback = 0;
  MergeDirectorStats director;
};

/// Long-running multi-camera ingestion service (ROADMAP item 1): frames
/// arrive per camera, windows close incrementally
/// (merge::IncrementalWindower over track::StreamingSortTracker), and a
/// MergeDirector decides when enough candidate pairs have accumulated to
/// schedule a batched selection/merge job on the shared core::ThreadPool.
///
/// Determinism contract: per camera, merge jobs run strictly in window
/// order against the camera's own FeatureCache, with per-window seeds
/// derived as in the batch pipeline — so each window's SelectionResult is
/// bit-identical to the batch path's no matter how jobs interleave across
/// cameras or how often backpressure engages. Scheduling *counters*
/// (deferrals, backpressure events, job count) are timing-dependent under
/// num_threads > 1; the selection outputs are not. bench_stream
/// --check-determinism pins this.
///
/// Time: the service never reads a wall clock. Callers stamp IngestFrame /
/// CloseCamera / Finish with simulated seconds (frame timestamps); the
/// director's stall watchdog and the latency metrics run on those stamps.
///
/// Concurrency: one mutex guards all control state (camera registry,
/// queues, director bookkeeping). Ingest (tracking + window closure) runs
/// under it; merge jobs — the expensive ReID/selection work — run outside
/// it on pool workers. Per-camera state touched by a running job (the
/// FeatureCache, the job's private track copies) is exclusive to that job
/// by the one-job-per-camera rule; handoff between consecutive jobs is
/// ordered by the service mutex and the pool queue.
class StreamService {
 public:
  explicit StreamService(const StreamServiceConfig& config,
                         merge::CandidateSelector& selector);
  ~StreamService();

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  /// Registers a camera; returns its id (dense, starting at 0).
  std::int32_t AddCamera(const CameraConfig& camera) TMERGE_EXCLUDES(mutex_);

  /// Feeds the next frame of `camera_id` at simulated time `now_seconds`.
  /// Frames must arrive in frame order per camera. A kBackpressure verdict
  /// means the caller keeps the frame and retries after advancing sim
  /// time. When the camera's buffer is full but merge jobs are in flight,
  /// the call waits for a completion instead of bouncing — the wait yields
  /// the service mutex, so a producer hammering a full queue can never
  /// starve the workers whose completions would unblock it; kBackpressure
  /// is returned only when there is nothing in flight to wait for.
  IngestOutcome IngestFrame(std::int32_t camera_id,
                            const detect::DetectionFrame& frame,
                            double now_seconds) TMERGE_EXCLUDES(mutex_);

  /// Declares end-of-stream for one camera: once its buffered frames
  /// drain, its tracker finishes and remaining windows force-flush. When
  /// every camera is closed the director enters stream-completed
  /// force-flush mode.
  void CloseCamera(std::int32_t camera_id, double now_seconds)
      TMERGE_EXCLUDES(mutex_);

  /// Closes any still-open cameras, drains every queue and in-flight
  /// merge job (blocking), and returns the aggregated result. The service
  /// is spent afterwards; further ingest is rejected.
  StreamResult Finish(double now_seconds) TMERGE_EXCLUDES(mutex_);

  /// Current frames buffered across all cameras (diagnostics/tests).
  std::int64_t queued_frames() const TMERGE_EXCLUDES(mutex_);

  MergeDirectorStats director_stats() const { return director_.stats(); }

  const StreamServiceConfig& config() const { return config_; }

 private:
  /// A window whose pair set is final, waiting for a merge job.
  struct PendingWindow {
    merge::WindowPairs window;
    double ready_seconds = 0.0;
  };

  /// One scheduled merge job: a contiguous in-order run of a camera's
  /// pending windows plus private copies of every track they reference
  /// (the camera's live TrackingResult keeps growing, so jobs never read
  /// it). Executed outside the service mutex.
  struct CameraState;

  struct MergeJob {
    std::int32_t camera_id = 0;
    /// Stable owner pointer (cameras_ holds unique_ptrs), captured under
    /// the mutex at schedule time. Outside the lock the job only touches
    /// the camera's job-exclusive state (FeatureCache, model).
    CameraState* camera = nullptr;
    std::vector<PendingWindow> windows;
    /// Private copies of the referenced tracks (ids + boxes identical to
    /// the batch tracking result's, which is all selectors read).
    track::TrackingResult tracks;
    std::int64_t total_pairs = 0;
    double admit_seconds = 0.0;
  };

  struct WindowOutcome {
    merge::SelectionResult selection;
    std::int64_t window_pairs = 0;
    double latency_seconds = 0.0;
  };

  struct CameraState {
    std::int32_t camera_id = 0;
    CameraConfig config;
    track::StreamingSortTracker tracker;
    merge::IncrementalWindower windower;
    /// Frames accepted but not yet admitted by the director.
    std::deque<detect::DetectionFrame> frame_queue;
    /// Closed windows with nonempty pair sets, awaiting a merge job.
    std::deque<PendingWindow> pending_windows;
    /// Embedding cache shared by this camera's merge jobs (in window
    /// order — the batch pipeline's per-video cross-window reuse).
    /// Accessed only by the camera's single in-flight job.
    reid::FeatureCache cache;
    bool job_inflight = false;
    /// Whether the next pump probes this camera's merge job. Set when a
    /// window closes here and, on every camera, when any merge job
    /// finishes: with the in-flight count, those are what change the
    /// director's verdict. A probe clears it, unless the director denied
    /// the job with a worker idle. So a camera left unmarked with pending
    /// windows was deferred while every worker was busy, and the next job
    /// to finish marks it again (DESIGN.md §11.4).
    bool merge_probe_due = false;
    bool close_requested = false;
    bool tracker_finished = false;
    /// SelectionResults in window order (jobs per camera are serial).
    std::vector<WindowOutcome> outcomes;
    std::int64_t frames_ingested = 0;
    std::int64_t frames_dropped = 0;
    /// Per-camera ingest-to-result latency histogram and queue-depth
    /// gauge, registered under obs::LabeledName(..., {{"camera", id}}) at
    /// AddCamera time; updates self-gate on obs::Enabled().
    obs::Histogram* latency_hist = nullptr;
    obs::Gauge* queue_gauge = nullptr;

    CameraState(std::int32_t id, const CameraConfig& camera,
                const merge::WindowConfig& window);
  };

  /// Drains admissible frames of one camera through tracking and window
  /// closure, then registers any newly pending pairs with the director.
  void DrainCameraLocked(CameraState& camera, double now_seconds)
      TMERGE_REQUIRES(mutex_);

  /// Finishes a camera whose stream closed and whose queue drained.
  void FinishCameraLocked(CameraState& camera, double now_seconds)
      TMERGE_REQUIRES(mutex_);

  /// Registers freshly closed windows as pending merge input.
  void EnqueueClosedLocked(CameraState& camera,
                           std::vector<merge::WindowPairs> closed,
                           double now_seconds) TMERGE_REQUIRES(mutex_);

  /// One full admission pass: drain every camera's queue, then collect
  /// every merge job the director admits right now among the cameras
  /// whose merge_probe_due flag is set.
  std::vector<MergeJob> PumpLocked(double now_seconds)
      TMERGE_REQUIRES(mutex_);

  /// Builds the next merge job for `camera` if the director admits one.
  bool ScheduleCameraJobLocked(CameraState& camera, double now_seconds,
                               MergeJob& job) TMERGE_REQUIRES(mutex_);

  /// Submits `job` to the pool and returns true. Returns false, leaving
  /// `job` with the caller to run inline, in serial mode and when Submit
  /// rejects it (counted as an inline fallback).
  bool SubmitJob(MergeJob& job) TMERGE_EXCLUDES(mutex_);

  /// Runs jobs: each one the pool does not take runs on the calling
  /// thread. Never holds the mutex.
  void Dispatch(std::vector<MergeJob> jobs) TMERGE_EXCLUDES(mutex_);

  /// Executes `job` and every follow-up job that completing it makes
  /// schedulable (loop, not recursion, so serial mode cannot blow the
  /// stack on long streams).
  void ExecuteChain(MergeJob job) TMERGE_EXCLUDES(mutex_);

  /// Selector work of one job (no lock held): one Select per window, in
  /// window order, against the camera's cache.
  std::vector<WindowOutcome> RunMergeJob(MergeJob& job);

  /// True when every queue, tracker, pending list and job has drained.
  bool AllIdleLocked() const TMERGE_REQUIRES(mutex_);

  /// Ordered (camera, then window) reduction into the final result.
  StreamResult BuildResultLocked() TMERGE_REQUIRES(mutex_);

  /// Writes the flight-recorder post-mortem if a stall flush was detected
  /// (PumpLocked sets the pending flag) and one hasn't been written yet.
  /// Called from the public entry points after the mutex is released —
  /// the dump itself (snapshot + file write) never holds the service lock.
  void MaybeWriteStallPostMortem() TMERGE_EXCLUDES(mutex_);

  const StreamServiceConfig config_;
  /// ingest_pair_estimate clamped into [1, max_intermediate_pairs]: an
  /// estimate larger than the whole budget could never be admitted and
  /// would wedge the drain loop.
  const std::int64_t ingest_estimate_;
  merge::CandidateSelector& selector_;
  MergeDirector director_;
  /// Null in serial mode (num_threads == 1), matching the pipeline's
  /// convention that 1 means "no threads at all".
  std::unique_ptr<core::ThreadPool> pool_;
  /// Present iff config.enable_embed_scheduler; bound to pool_ (so merge
  /// jobs running ON pool workers compute inline — the scheduler's
  /// reentrancy rule — while main-thread callers go async). Declared after
  /// pool_ so it is destroyed first.
  std::unique_ptr<reid::EmbedScheduler> embed_scheduler_;

  mutable core::Mutex mutex_;
  core::CondVar idle_cv_;
  std::vector<std::unique_ptr<CameraState>> cameras_ TMERGE_GUARDED_BY(mutex_);
  std::int32_t open_cameras_ TMERGE_GUARDED_BY(mutex_) = 0;
  bool finished_ TMERGE_GUARDED_BY(mutex_) = false;
  double now_watermark_ TMERGE_GUARDED_BY(mutex_) = 0.0;
  std::int64_t queued_frames_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t peak_queued_frames_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t backpressure_events_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t inflight_jobs_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t merge_jobs_run_ TMERGE_GUARDED_BY(mutex_) = 0;
  std::int64_t inline_fallbacks_ TMERGE_GUARDED_BY(mutex_) = 0;
  /// Stall post-mortem state: pending is set by PumpLocked when the
  /// director reports its first stall flush; written latches after the
  /// one-and-only dump.
  bool stall_dump_pending_ TMERGE_GUARDED_BY(mutex_) = false;
  bool stall_dump_written_ TMERGE_GUARDED_BY(mutex_) = false;
};

}  // namespace tmerge::stream

#endif  // TMERGE_STREAM_STREAM_SERVICE_H_
