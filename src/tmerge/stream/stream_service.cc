#include "tmerge/stream/stream_service.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_set>
#include <utility>

#include "tmerge/core/mutex.h"
#include "tmerge/core/status.h"
#include "tmerge/fault/failpoint.h"
#include "tmerge/merge/pair_store.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/span.h"
#include "tmerge/obs/trace.h"

namespace tmerge::stream {

namespace {

/// Newest events per thread kept in a stall post-mortem dump: enough to
/// see the full defer/flush run-up without dumping a whole soak's rings.
constexpr std::size_t kPostMortemEventsPerThread = 2048;

/// Cap on closed windows of one camera batched into one merge job.
constexpr std::int32_t kMaxWindowsPerMergeJob = 4;

obs::Counter& StreamCounter(const char* name) {
  return obs::DefaultRegistry().GetCounter(name);
}

}  // namespace

StreamService::CameraState::CameraState(std::int32_t id,
                                        const CameraConfig& camera,
                                        const merge::WindowConfig& window)
    : camera_id(id),
      config(camera),
      tracker(camera.sort, camera.num_frames, camera.frame_width,
              camera.frame_height, camera.fps),
      windower(window, camera.num_frames) {}

StreamService::StreamService(const StreamServiceConfig& config,
                             merge::CandidateSelector& selector)
    : config_(config),
      ingest_estimate_(std::clamp<std::int64_t>(
          config.ingest_pair_estimate, 1,
          config.director.max_intermediate_pairs)),
      selector_(selector),
      director_(config.director,
                core::ResolveNumThreads(config.num_threads)) {
  TMERGE_CHECK(config_.max_queued_frames_per_camera > 0);
  // One worker is the serial reference path (no threads at all), matching
  // the pipeline convention: merge jobs then run inline.
  if (director_.merge_workers() > 1) {
    pool_ = std::make_unique<core::ThreadPool>(director_.merge_workers());
  }
  if (config_.enable_embed_scheduler) {
    embed_scheduler_ = std::make_unique<reid::EmbedScheduler>(
        config_.embed_scheduler, pool_.get());
  }
}

StreamService::~StreamService() {
  // Join in-flight merge jobs before the state they reference is torn
  // down. (ThreadPool's destructor discards still-queued jobs, which is
  // fine here: an abandoned service has no result to corrupt.)
  pool_.reset();
}

std::int32_t StreamService::AddCamera(const CameraConfig& camera) {
  TMERGE_CHECK(camera.num_frames >= 0);
  TMERGE_CHECK(camera.model != nullptr);
  core::MutexLock lock(mutex_);
  TMERGE_CHECK(!finished_);
  std::int32_t id = static_cast<std::int32_t>(cameras_.size());
  cameras_.push_back(
      std::make_unique<CameraState>(id, camera, config_.window));
  // Per-camera series share one family name and differ only in the
  // `camera` label: stream.camera.queued_frames{camera="3"}.
  CameraState& state = *cameras_.back();
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  std::vector<obs::MetricLabel> labels{{"camera", std::to_string(id)}};
  state.latency_hist = &registry.GetHistogram(
      obs::LabeledName("stream.camera.ingest_to_result.seconds", labels),
      obs::DurationBounds());
  state.queue_gauge = &registry.GetGauge(
      obs::LabeledName("stream.camera.queued_frames", labels));
  ++open_cameras_;
  return id;
}

IngestOutcome StreamService::IngestFrame(std::int32_t camera_id,
                                         const detect::DetectionFrame& frame,
                                         double now_seconds) {
  TMERGE_SPAN("stream.ingest.seconds");
  std::vector<MergeJob> jobs;
  IngestOutcome outcome = IngestOutcome::kAccepted;
  {
    core::MutexLock lock(mutex_);
    now_watermark_ = std::max(now_watermark_, now_seconds);
    if (finished_ || camera_id < 0 ||
        camera_id >= static_cast<std::int32_t>(cameras_.size())) {
      return IngestOutcome::kRejected;
    }
    CameraState& camera = *cameras_[camera_id];
    if (camera.close_requested) return IngestOutcome::kRejected;
    // A full queue is a backpressure event whether or not the producer
    // ends up bounced: either way it was stalled by the consumer side.
    if (static_cast<std::int32_t>(camera.frame_queue.size()) >=
        config_.max_queued_frames_per_camera) {
      ++backpressure_events_;
      static obs::Counter& backpressure_counter =
          StreamCounter("stream.backpressure_events");
      backpressure_counter.Add();
    }
    // Full queue with jobs in flight: wait for a completion instead of
    // bouncing. The Wait releases the mutex, which is what lets the worker
    // in — a producer that spins on kBackpressure in a tight loop would
    // otherwise starve ExecuteChain of the lock and wedge the stream with
    // the director convinced a job is still running.
    while (static_cast<std::int32_t>(camera.frame_queue.size()) >=
               config_.max_queued_frames_per_camera &&
           inflight_jobs_ > 0) {
      idle_cv_.Wait(mutex_);
    }
    if (camera.close_requested || finished_) return IngestOutcome::kRejected;
    if (static_cast<std::int32_t>(camera.frame_queue.size()) >=
        config_.max_queued_frames_per_camera) {
      // Nothing in flight to wait for: bounce, but still pump before
      // returning — these bounced calls are the only thing probing the
      // director with advancing sim time, and the pump is what arms the
      // stall watchdog and schedules the merge jobs that eventually
      // unblock ingest. Returning early here deadlocks.
      outcome = IngestOutcome::kBackpressure;
    } else {
      // Keyed per (camera, frame): a retried frame gets the same verdict,
      // so drop schedules are reproducible under any ingest interleaving.
      std::uint64_t drop_key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(camera_id))
           << 32) |
          static_cast<std::uint32_t>(frame.frame);
      if (TMERGE_FAILPOINT("stream.camera.drop_frame", drop_key)) {
        // Transport loss: the detections are gone but stream time still
        // advances, so an empty frame takes the slot (the tracker coasts).
        detect::DetectionFrame lost;
        lost.frame = frame.frame;
        camera.frame_queue.push_back(std::move(lost));
        ++camera.frames_dropped;
        static obs::Counter& dropped_counter =
            StreamCounter("stream.frames_dropped");
        dropped_counter.Add();
        outcome = IngestOutcome::kDropped;
      } else {
        camera.frame_queue.push_back(frame);
      }
      TMERGE_TRACE_INSTANT("stream.frame.enqueue", now_seconds,
                           {"camera", camera_id}, {"frame", frame.frame});
      ++camera.frames_ingested;
      ++queued_frames_;
      peak_queued_frames_ = std::max(peak_queued_frames_, queued_frames_);
      static obs::Counter& ingested_counter =
          StreamCounter("stream.frames_ingested");
      ingested_counter.Add();
    }
    jobs = PumpLocked(now_seconds);
  }
  Dispatch(std::move(jobs));
  MaybeWriteStallPostMortem();
  return outcome;
}

void StreamService::CloseCamera(std::int32_t camera_id, double now_seconds) {
  std::vector<MergeJob> jobs;
  {
    core::MutexLock lock(mutex_);
    now_watermark_ = std::max(now_watermark_, now_seconds);
    TMERGE_CHECK(camera_id >= 0 &&
                 camera_id < static_cast<std::int32_t>(cameras_.size()));
    CameraState& camera = *cameras_[camera_id];
    if (camera.close_requested) return;
    camera.close_requested = true;
    --open_cameras_;
    if (open_cameras_ == 0) director_.OnStreamCompleted();
    jobs = PumpLocked(now_seconds);
  }
  Dispatch(std::move(jobs));
  MaybeWriteStallPostMortem();
}

void StreamService::DrainCameraLocked(CameraState& camera,
                                      double now_seconds) {
  while (!camera.frame_queue.empty()) {
    if (!director_.CanScheduleIngestJob(ingest_estimate_, now_seconds)) {
      return;
    }
    detect::DetectionFrame frame = std::move(camera.frame_queue.front());
    camera.frame_queue.pop_front();
    --queued_frames_;
    TMERGE_TRACE_INSTANT("stream.frame.dequeue", now_seconds,
                         {"camera", camera.camera_id},
                         {"frame", frame.frame});
    {
      TMERGE_TRACE_SCOPE("stream.frame.ingest", now_seconds,
                         {"camera", camera.camera_id},
                         {"frame", frame.frame});
      {
        TMERGE_SPAN("stream.track.seconds");
        camera.tracker.Observe(frame);
      }
      std::vector<merge::WindowPairs> closed = camera.windower.Advance(
          camera.tracker.result().tracks, camera.tracker.frames_observed(),
          camera.tracker.min_active_first_frame());
      EnqueueClosedLocked(camera, std::move(closed), now_seconds);
    }
  }
  if (camera.close_requested && !camera.tracker_finished) {
    FinishCameraLocked(camera, now_seconds);
  }
}

void StreamService::FinishCameraLocked(CameraState& camera,
                                       double now_seconds) {
  camera.tracker.Finish();
  std::vector<merge::WindowPairs> closed =
      camera.windower.Finish(camera.tracker.result().tracks);
  EnqueueClosedLocked(camera, std::move(closed), now_seconds);
  camera.tracker_finished = true;
}

void StreamService::EnqueueClosedLocked(
    CameraState& camera, std::vector<merge::WindowPairs> closed,
    double now_seconds) {
  for (merge::WindowPairs& window : closed) {
    TMERGE_TRACE_SCOPE("stream.window.close", now_seconds,
                       {"camera", camera.camera_id},
                       {"window", window.window_index});
    static obs::Counter& closed_counter =
        StreamCounter("stream.windows_closed");
    closed_counter.Add();
    // Pairless windows never reach a selector in the batch path either
    // (EvaluateSelector skips them), so they close silently.
    if (window.pairs.empty()) continue;
    director_.OnMergeInputProcessed(
        static_cast<std::int64_t>(window.pairs.size()));
    PendingWindow pending;
    pending.window = std::move(window);
    pending.ready_seconds = now_seconds;
    camera.pending_windows.push_back(std::move(pending));
    camera.merge_probe_due = true;
  }
}

bool StreamService::ScheduleCameraJobLocked(CameraState& camera,
                                            double now_seconds,
                                            MergeJob& job) {
  if (camera.job_inflight || camera.pending_windows.empty()) return false;
  std::int32_t batch = std::min<std::int32_t>(
      kMaxWindowsPerMergeJob,
      static_cast<std::int32_t>(camera.pending_windows.size()));
  std::int64_t total_pairs = 0;
  for (std::int32_t i = 0; i < batch; ++i) {
    total_pairs +=
        static_cast<std::int64_t>(camera.pending_windows[i].window.pairs.size());
  }
  if (!director_.CanScheduleMergeJob(total_pairs)) {
    // Denied with a worker idle: only the "stream.director.defer"
    // failpoint or an in-flight cap below W does that, and no event marks
    // the camera when it clears, so the next pump probes it again.
    camera.merge_probe_due = inflight_jobs_ < director_.merge_workers();
    return false;
  }
  director_.OnMergeJobStarted(total_pairs);
  camera.job_inflight = true;
  // Brackets the admitted job's build (window batch + track copies) so
  // the timeline shows where admission happened and what it cost.
  TMERGE_TRACE_SCOPE("stream.director.admit", now_seconds,
                     {"camera", camera.camera_id}, {"pairs", total_pairs});

  job.camera_id = camera.camera_id;
  job.camera = &camera;
  job.total_pairs = total_pairs;
  job.admit_seconds = now_seconds;
  job.windows.reserve(batch);
  std::unordered_set<track::TrackId> wanted;
  for (std::int32_t i = 0; i < batch; ++i) {
    PendingWindow& pending = camera.pending_windows.front();
    for (const metrics::TrackPairKey& key : pending.window.pairs) {
      wanted.insert(key.first);
      wanted.insert(key.second);
    }
    job.windows.push_back(std::move(pending));
    camera.pending_windows.pop_front();
  }
  // Copy the referenced tracks out of the live tracking result: the
  // camera keeps retiring tracks into it while this job runs, and a
  // push_back may reallocate under a concurrent reader. The copies carry
  // the same ids and boxes the batch PairContext would see.
  const track::TrackingResult& live = camera.tracker.result();
  job.tracks.tracker_name = live.tracker_name;
  job.tracks.num_frames = live.num_frames;
  job.tracks.frame_width = live.frame_width;
  job.tracks.frame_height = live.frame_height;
  job.tracks.fps = live.fps;
  job.tracks.tracks.reserve(wanted.size());
  for (const track::Track& track : live.tracks) {
    if (wanted.contains(track.id)) job.tracks.tracks.push_back(track);
  }

  ++inflight_jobs_;
  ++merge_jobs_run_;
  static obs::Counter& jobs_counter = StreamCounter("stream.merge_jobs");
  jobs_counter.Add();
  TMERGE_TRACE_INSTANT("stream.merge_job.submit", now_seconds,
                       {"camera", camera.camera_id}, {"windows", batch});
  return true;
}

std::vector<StreamService::MergeJob> StreamService::PumpLocked(
    double now_seconds) {
  for (auto& camera : cameras_) DrainCameraLocked(*camera, now_seconds);
  // Pumps run once per ingested frame, and re-probing a camera whose
  // verdict cannot have changed would only count another deferral, so
  // only marked cameras are probed (CameraState::merge_probe_due).
  std::vector<MergeJob> jobs;
  for (auto& camera : cameras_) {
    if (!camera->merge_probe_due) continue;
    camera->merge_probe_due = false;
    MergeJob job;
    if (ScheduleCameraJobLocked(*camera, now_seconds, job)) {
      jobs.push_back(std::move(job));
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::DefaultRegistry();
    static obs::Gauge& queued = registry.GetGauge("stream.queued_frames");
    static obs::Gauge& open_windows = registry.GetGauge("stream.open_windows");
    static obs::Gauge& pending = registry.GetGauge("stream.pending_pairs");
    static obs::Gauge& inflight =
        registry.GetGauge("stream.inflight_merge_jobs");
    queued.Set(static_cast<double>(queued_frames_));
    std::int64_t open = 0;
    for (const auto& camera : cameras_) {
      open += camera->windower.open_windows();
    }
    open_windows.Set(static_cast<double>(open));
    pending.Set(static_cast<double>(director_.stats().pending_pairs));
    inflight.Set(static_cast<double>(inflight_jobs_));
    for (const auto& camera : cameras_) {
      camera->queue_gauge->Set(static_cast<double>(camera->frame_queue.size()));
    }
  }
  if (obs::TraceRecorder::Default().recording()) {
    obs::TraceCounter("stream.queued_frames", queued_frames_, now_seconds);
    obs::TraceCounter("stream.inflight_merge_jobs", inflight_jobs_,
                      now_seconds);
    obs::TraceCounter("stream.pending_pairs", director_.stats().pending_pairs,
                      now_seconds);
    // First stall flush with a post-mortem path configured: arm the dump
    // (written by the caller once the mutex is released).
    if (!stall_dump_written_ && !stall_dump_pending_ &&
        !config_.stall_post_mortem_path.empty() &&
        director_.stats().stall_flushes > 0) {
      stall_dump_pending_ = true;
    }
  }
  return jobs;
}

void StreamService::MaybeWriteStallPostMortem() {
  bool write = false;
  {
    core::MutexLock lock(mutex_);
    if (stall_dump_pending_ && !stall_dump_written_) {
      stall_dump_written_ = true;
      write = true;
    }
    stall_dump_pending_ = false;
  }
  if (!write) return;
  obs::TraceSnapshot snapshot =
      obs::TraceRecorder::Default().Snapshot(kPostMortemEventsPerThread);
  if (obs::WriteChromeTraceFile(config_.stall_post_mortem_path, snapshot)) {
    std::fprintf(stderr,
                 "stream: stall watchdog fired; flight-recorder post-mortem "
                 "written to %s (%zu events)\n",
                 config_.stall_post_mortem_path.c_str(),
                 snapshot.events.size());
  } else {
    std::fprintf(stderr,
                 "stream: stall watchdog fired but post-mortem write to %s "
                 "failed\n",
                 config_.stall_post_mortem_path.c_str());
  }
}

bool StreamService::SubmitJob(MergeJob& job) {
  if (!pool_) return false;
  // shared_ptr because std::function requires a copyable callable.
  auto shared = std::make_shared<MergeJob>(std::move(job));
  core::Status status =
      pool_->Submit([this, shared] { ExecuteChain(std::move(*shared)); });
  if (status.ok()) return true;
  // Saturated executor ("core.pool.submit" failpoint): hand the job back
  // to run inline instead of dropping it.
  {
    core::MutexLock lock(mutex_);
    ++inline_fallbacks_;
  }
  job = std::move(*shared);
  return false;
}

void StreamService::Dispatch(std::vector<MergeJob> jobs) {
  for (MergeJob& job : jobs) {
    if (!SubmitJob(job)) ExecuteChain(std::move(job));
  }
}

void StreamService::ExecuteChain(MergeJob job) {
  // A worklist, not recursion: in serial mode one long stream chains
  // hundreds of jobs and must not grow the stack with them.
  std::deque<MergeJob> local;
  local.push_back(std::move(job));
  while (!local.empty()) {
    MergeJob current = std::move(local.front());
    local.pop_front();
    std::vector<WindowOutcome> outcomes = RunMergeJob(current);
    std::vector<MergeJob> next;
    {
      TMERGE_TRACE_SCOPE("stream.merge_job.reduce", obs::kTraceNoSimTime,
                         {"camera", current.camera_id});
      core::MutexLock lock(mutex_);
      CameraState& camera = *current.camera;
      for (WindowOutcome& outcome : outcomes) {
        // Service-side ingest-to-result latency, per camera and fleet-wide.
        camera.latency_hist->Record(outcome.latency_seconds);
        static obs::Histogram& latency = obs::DefaultRegistry().GetHistogram(
            "stream.ingest_to_result.seconds");
        latency.Record(outcome.latency_seconds);
        merge::PublishWindowObs(outcome.selection, outcome.window_pairs);
        camera.outcomes.push_back(std::move(outcome));
      }
      camera.job_inflight = false;
      --inflight_jobs_;
      director_.OnMergeJobFinished(current.total_pairs);
      // Completing a job frees budget on both sides and a worker: drain
      // what the director now admits, and probe every camera again for
      // follow-up jobs.
      for (auto& other : cameras_) other->merge_probe_due = true;
      next = PumpLocked(now_watermark_);
      idle_cv_.NotifyAll();
    }
    for (MergeJob& follow : next) {
      if (!SubmitJob(follow)) local.push_back(std::move(follow));
    }
  }
}

std::vector<StreamService::WindowOutcome> StreamService::RunMergeJob(
    MergeJob& job) {
  TMERGE_SPAN("stream.merge_job.seconds");
  TMERGE_TRACE_SCOPE("stream.merge_job.run", job.admit_seconds,
                     {"camera", job.camera_id},
                     {"windows",
                      static_cast<std::int64_t>(job.windows.size())});
  std::vector<WindowOutcome> outcomes;
  outcomes.reserve(job.windows.size());
  for (PendingWindow& pending : job.windows) {
    merge::SelectorOptions options = config_.selector;
    options.seed =
        merge::WindowSeed(config_.selector.seed, pending.window.window_index);
    if (embed_scheduler_) options.embed_scheduler = embed_scheduler_.get();
    merge::PairContext context(job.tracks, pending.window.pairs);
    WindowOutcome outcome;
    outcome.window_pairs =
        static_cast<std::int64_t>(pending.window.pairs.size());
    {
      TMERGE_SPAN("stream.select.seconds");
      TMERGE_TRACE_SCOPE("stream.merge_job.select", job.admit_seconds,
                         {"camera", job.camera_id},
                         {"window", pending.window.window_index});
      outcome.selection = selector_.Select(context, *job.camera->config.model,
                                           job.camera->cache, options);
    }
    // Service-side close latency: how long the closed window waited for
    // admission, plus the simulated selection time of the window itself.
    outcome.latency_seconds = (job.admit_seconds - pending.ready_seconds) +
                              outcome.selection.simulated_seconds;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

StreamResult StreamService::Finish(double now_seconds) {
  {
    core::MutexLock lock(mutex_);
    TMERGE_CHECK(!finished_);
    now_watermark_ = std::max(now_watermark_, now_seconds);
    for (auto& camera : cameras_) {
      if (!camera->close_requested) {
        camera->close_requested = true;
        --open_cameras_;
      }
    }
    if (open_cameras_ == 0) director_.OnStreamCompleted();
  }

  // Drain loop. Every iteration either runs jobs, observes progress made
  // by PumpLocked (frames drained, trackers finished), or blocks on a job
  // completion — with force-flush on, the director admits every probed
  // job up to the in-flight cap, and a camera left unprobed has a job in
  // flight whose completion marks it, so the loop terminates (DESIGN.md
  // §11, liveness argument).
  bool done = false;
  while (!done) {
    std::vector<MergeJob> jobs;
    {
      core::MutexLock lock(mutex_);
      jobs = PumpLocked(now_watermark_);
      if (jobs.empty()) {
        if (AllIdleLocked()) {
          done = true;
        } else if (inflight_jobs_ > 0) {
          std::int64_t before = inflight_jobs_;
          while (inflight_jobs_ >= before && !AllIdleLocked()) {
            idle_cv_.Wait(mutex_);
          }
        }
      }
    }
    Dispatch(std::move(jobs));
    MaybeWriteStallPostMortem();
  }

  // Clean end-of-stream drain: no scheduler batch may be left in flight
  // once every merge job has completed (scheduler_fault_test pins the
  // zero-outstanding invariant this asserts).
  if (embed_scheduler_) embed_scheduler_->Flush();

  core::MutexLock lock(mutex_);
  finished_ = true;
  return BuildResultLocked();
}

bool StreamService::AllIdleLocked() const {
  if (inflight_jobs_ > 0) return false;
  for (const auto& camera : cameras_) {
    if (!camera->frame_queue.empty()) return false;
    if (!camera->tracker_finished) return false;
    if (!camera->pending_windows.empty()) return false;
    if (camera->job_inflight) return false;
  }
  return true;
}

StreamResult StreamService::BuildResultLocked() {
  StreamResult out;
  out.cameras.reserve(cameras_.size());
  for (const auto& camera_ptr : cameras_) {
    const CameraState& camera = *camera_ptr;
    CameraStreamResult per;
    per.camera_id = camera.camera_id;
    per.frames_ingested = camera.frames_ingested;
    per.frames_dropped = camera.frames_dropped;
    per.tracks_finalized =
        static_cast<std::int64_t>(camera.tracker.result().tracks.size());
    per.window_close_latency_seconds.reserve(camera.outcomes.size());
    // Window-order accumulation — the same floating-point sequence as
    // EvaluateSelector's per-window loop.
    std::set<metrics::TrackPairKey> selected;
    for (const WindowOutcome& outcome : camera.outcomes) {
      per.AddWindow(outcome.selection, outcome.window_pairs);
      for (const metrics::TrackPairKey& pair : outcome.selection.candidates) {
        selected.insert(pair);
      }
      per.window_close_latency_seconds.push_back(outcome.latency_seconds);
    }
    per.candidates.assign(selected.begin(), selected.end());

    // Camera-order reduction — EvaluateDataset's video-order sequence.
    out.Add(per);
    out.frames_ingested += per.frames_ingested;
    out.frames_dropped += per.frames_dropped;
    out.tracks_finalized += per.tracks_finalized;
    out.cameras.push_back(std::move(per));
  }
  out.backpressure_events = backpressure_events_;
  out.peak_queued_frames = peak_queued_frames_;
  out.merge_jobs_run = merge_jobs_run_;
  out.merge_jobs_inline_fallback = inline_fallbacks_;
  out.director = director_.stats();
  return out;
}

std::int64_t StreamService::queued_frames() const {
  core::MutexLock lock(mutex_);
  return queued_frames_;
}

}  // namespace tmerge::stream
