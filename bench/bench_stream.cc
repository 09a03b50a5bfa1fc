// Streaming ingestion soak: N cameras (default 100) feed a StreamService
// round-robin under deliberately tight director budgets, so admission
// control and backpressure actually engage while the merge workers keep
// up. Reports ingest throughput, p99 service-side window-close latency
// and the scheduling counters as one BENCH_JSON line for the CI perf
// lane, and hard-fails (non-zero exit) when the soak invariants break:
// ingest must finish before the wall-clock watchdog, backpressure must
// have engaged at least once, and the frame backlog must stay bounded by
// the per-camera queue cap.
//
// --check-determinism additionally runs the batch pipeline over the same
// synthetic videos and asserts the streamed per-camera selection output
// is bit-identical (candidates, simulated seconds, inference usage) —
// the tentpole equivalence guarantee of DESIGN.md §11, checked end to
// end on every CI run.
//
// Env knobs (strict parsing, mirroring the TMERGE_* convention):
//   TMERGE_STREAM_CAMERAS    number of cameras (default 100)
//   TMERGE_STREAM_FRAMES     frames per camera (default 300)
//   TMERGE_STREAM_TIMEOUT_S  wall-clock watchdog in seconds (default 300)
//   TMERGE_STREAM_GATE       "1" wraps the selector in an enabled
//                            gate::GatedSelector (prefetch on) and gives
//                            the service a reid::EmbedScheduler — the
//                            gated soak of the CI gate-smoke lane. The
//                            determinism check then replays the batch
//                            side with its own scheduler, pinning gated
//                            streamed == gated batch bit-identity.
//   TMERGE_NUM_THREADS       merge workers (bench_util.h, BenchNumThreads)
//   TMERGE_FAULT[_SEED]      optional failpoint schedule (InitFaultFromEnv)
//   TMERGE_TRACE             "1" arms the flight recorder (InitTraceFromEnv)
//   TMERGE_TRACE_OUT         Chrome-trace output path (default
//                            bench_stream_trace.json in the cwd)
//
// With tracing armed the bench writes a Chrome-trace JSON dump (loadable
// in chrome://tracing / Perfetto, summarizable with
// tools/trace_summarize.py) and prints its path as a "TRACE_JSON <path>"
// line: always at exit, and — the part that matters for CI triage — from
// the watchdog thread right before it kills a wedged run, so the last
// seconds of scheduling history survive the crash. The stall watchdog
// inside StreamService additionally writes its own post-mortem next to
// the main dump (<trace>_stall.json) the first time a stall force-flush
// fires; a healthy run never stalls (stall_flushes in BENCH_JSON is 0),
// so that file is written only for a wedge or an armed
// stream.director.defer failpoint.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/obs/trace.h"
#include "tmerge/obs/trace_clock.h"
#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/stream/stream_service.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::bench {
namespace {

/// Strict env int: unset -> fallback; anything unparsable or non-positive
/// warns and falls back, so a typo never silently shrinks the soak.
std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || value <= 0) {
    std::cerr << "bench_stream: ignoring invalid " << name << "='" << raw
              << "' (want a positive integer); using " << fallback << "\n";
    return fallback;
  }
  return value;
}

/// Hard wall-clock bound on the whole bench. A wedged stream (deadlock,
/// lost merge job, stalled admission) must fail the CI soak lane loudly
/// instead of eating the job timeout.
class Watchdog {
 public:
  /// `trace_path`: where the flight-recorder post-mortem goes if the
  /// watchdog fires (no-op unless TMERGE_TRACE armed the recorder). The
  /// recorder's rings are seqlocks, so snapshotting from this thread is
  /// safe even while every other thread is wedged mid-write.
  Watchdog(double seconds, std::string trace_path)
      : trace_path_(std::move(trace_path)) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this] { return disarmed_; })) {
        std::cerr << "bench_stream: WATCHDOG expired after " << seconds
                  << "s — the stream wedged (deadlock or stalled "
                     "admission); failing the soak\n";
        DumpTrace(trace_path_, "watchdog post-mortem");
        std::_Exit(3);
      }
    });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const std::string trace_path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

/// Sibling path for StreamService's stall post-mortem: foo.json ->
/// foo_stall.json, so both dumps land in the same artifact directory.
std::string StallDumpPath(const std::string& trace_path) {
  const std::string suffix = ".json";
  if (trace_path.size() > suffix.size() &&
      trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return trace_path.substr(0, trace_path.size() - suffix.size()) +
           "_stall.json";
  }
  return trace_path + "_stall.json";
}

struct SoakSetup {
  sim::Dataset dataset;
  std::vector<detect::DetectionSequence> detections;
  std::vector<std::shared_ptr<const reid::ReidModel>> models;
  merge::PipelineConfig pipeline;
};

/// Builds the camera fleet. Detection and model seeds are derived exactly
/// as merge::PrepareDataset derives them (pipeline.seed + 31 * (i + 1)),
/// which is what lets --check-determinism compare against the batch
/// pipeline bit for bit.
SoakSetup BuildSetup(std::int32_t cameras, std::int32_t frames) {
  SoakSetup setup;
  setup.pipeline.window.length = 120;
  setup.pipeline.seed = 42;
  setup.pipeline.num_threads = 1;

  sim::VideoConfig base = sim::ProfileConfig(sim::DatasetProfile::kKittiLike);
  base.num_frames = frames;
  setup.dataset.name = "stream-soak";
  setup.dataset.profile = sim::DatasetProfile::kKittiLike;
  setup.dataset.videos.reserve(cameras);
  for (std::int32_t i = 0; i < cameras; ++i) {
    setup.dataset.videos.push_back(
        sim::GenerateVideo(base, setup.pipeline.seed + i));
  }
  setup.detections.reserve(cameras);
  setup.models.reserve(cameras);
  for (std::int32_t i = 0; i < cameras; ++i) {
    std::uint64_t seed = setup.pipeline.seed + 31 * (i + 1);
    setup.detections.push_back(detect::SimulateDetections(
        setup.dataset.videos[i], setup.pipeline.detector, seed));
    setup.models.push_back(std::make_shared<reid::SyntheticReidModel>(
        setup.dataset.videos[i], setup.pipeline.reid, seed));
  }
  return setup;
}

merge::SelectorOptions SoakSelectorOptions() {
  merge::SelectorOptions options;
  options.seed = 5;
  return options;
}

/// Streams every camera round-robin. Sim time advances one frame interval
/// per full round; backpressure verdicts retry with an extra sim-time
/// step, which is what the director's stall watchdog measures.
stream::StreamResult RunSoak(const SoakSetup& setup,
                             merge::CandidateSelector& selector,
                             int num_threads,
                             const std::string& stall_dump_path,
                             bool gated) {
  stream::StreamServiceConfig config;
  config.window = setup.pipeline.window;
  config.selector = SoakSelectorOptions();
  config.num_threads = num_threads;
  config.stall_post_mortem_path = stall_dump_path;
  // The gated soak exercises the service-owned EmbedScheduler end to end:
  // merge jobs run on the pool, so the scheduler takes its inline
  // (reentrant) path there; serial runs go through the same commit order.
  config.enable_embed_scheduler = gated;
  // Tight on purpose, and scaled to the fleet. KITTI-like windows carry
  // ~10 pairs, so a min-batch threshold above a full 4-window job (~40
  // pairs) defers every mid-stream merge while all merge workers are
  // busy; pending pairs then accumulate toward the fleet-scaled
  // intermediate budget, ingest is denied, and queues fill
  // (backpressure) until a worker frees and takes the backlog — the
  // admission-control cycle, exercised at any TMERGE_STREAM_CAMERAS. The
  // 2-sim-second stall watchdog is an alarm that a healthy run never
  // trips. The queue cap also bounds peak memory: peak_queued_frames <=
  // cameras * max_queued_frames_per_camera.
  std::int64_t fleet = static_cast<std::int64_t>(setup.detections.size());
  config.max_queued_frames_per_camera = 16;
  config.director.max_intermediate_pairs = 8 * fleet;
  config.director.min_pairs_per_merge_job = 64;
  config.director.max_inflight_merge_jobs = 8;
  config.director.stall_timeout_seconds = 2.0;
  config.ingest_pair_estimate = 8;
  if (gated) {
    // The gate makes merge jobs cheap, and under the budgets above the
    // work-conserving director keeps up with them: most gated runs never
    // deny ingest at all. One pair per camera and two jobs in flight keep
    // the merge side behind ingest, so the gated soak still fills queues.
    config.director.max_intermediate_pairs = fleet;
    config.director.max_inflight_merge_jobs = 2;
  }

  stream::StreamService service(config, selector);
  for (std::size_t i = 0; i < setup.detections.size(); ++i) {
    stream::CameraConfig camera;
    camera.num_frames = setup.detections[i].num_frames;
    camera.frame_width = setup.detections[i].frame_width;
    camera.frame_height = setup.detections[i].frame_height;
    camera.fps = setup.detections[i].fps;
    camera.model = setup.models[i];
    service.AddCamera(camera);
  }

  double now = 0.0;
  std::int32_t max_frames = 0;
  for (const auto& sequence : setup.detections) {
    max_frames = std::max(max_frames, sequence.num_frames);
  }
  double frame_step = 1.0 / (30.0 * static_cast<double>(
                                        setup.detections.size()));
  for (std::int32_t f = 0; f < max_frames; ++f) {
    for (std::size_t cam = 0; cam < setup.detections.size(); ++cam) {
      if (f >= setup.detections[cam].num_frames) continue;
      now += frame_step;
      for (;;) {
        stream::IngestOutcome outcome = service.IngestFrame(
            static_cast<std::int32_t>(cam), setup.detections[cam].frames[f],
            now);
        if (outcome != stream::IngestOutcome::kBackpressure) break;
        now += 0.25;  // Producer stalls; the stall watchdog measures this.
      }
    }
  }
  for (std::size_t cam = 0; cam < setup.detections.size(); ++cam) {
    service.CloseCamera(static_cast<std::int32_t>(cam), now);
  }
  return service.Finish(now + 1.0);
}

double Percentile99(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t index = (values.size() * 99 + 99) / 100;  // ceil(0.99 n)
  if (index > values.size()) index = values.size();
  return values[index - 1];
}

/// Batch reference vs streamed output, camera by camera. Returns the
/// number of divergent cameras (0 = bit-identical).
int CheckDeterminism(const SoakSetup& setup,
                     merge::CandidateSelector& selector,
                     const stream::StreamResult& streamed, bool gated) {
  track::SortTracker tracker;
  std::vector<merge::PreparedVideo> prepared =
      merge::PrepareDataset(setup.dataset, tracker, setup.pipeline);
  merge::SelectorOptions options = SoakSelectorOptions();
  // The gated soak's streaming side prefetched through the service's
  // scheduler; the batch replay needs its own (same config, no pool —
  // sync and async commits are bit-identical) or the charge sequences
  // would legitimately differ.
  reid::EmbedScheduler batch_scheduler{reid::EmbedSchedulerConfig{},
                                       nullptr};
  if (gated) options.embed_scheduler = &batch_scheduler;
  int divergent = 0;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    merge::EvalResult batch =
        merge::EvaluateSelector(prepared[i], selector, options);
    const stream::CameraStreamResult& camera = streamed.cameras[i];
    if (camera.candidates != batch.candidates || !camera.SameWork(batch)) {
      ++divergent;
      std::cerr << "bench_stream: DETERMINISM VIOLATION camera " << i
                << ": streamed (candidates=" << camera.candidates.size()
                << ", windows=" << camera.windows
                << ", pairs=" << camera.pairs
                << ", sim_s=" << camera.simulated_seconds
                << ") vs batch (candidates=" << batch.candidates.size()
                << ", windows=" << batch.windows
                << ", pairs=" << batch.pairs
                << ", sim_s=" << batch.simulated_seconds << ")\n";
    }
  }
  return divergent;
}

int Run(bool check_determinism) {
  InitObsFromEnv();
  InitFaultFromEnv();
  bool tracing = InitTraceFromEnv();
  std::string trace_path = TraceOutputPath("bench_stream_trace.json");
  std::int32_t cameras =
      static_cast<std::int32_t>(EnvInt("TMERGE_STREAM_CAMERAS", 100));
  std::int32_t frames =
      static_cast<std::int32_t>(EnvInt("TMERGE_STREAM_FRAMES", 300));
  double timeout_s =
      static_cast<double>(EnvInt("TMERGE_STREAM_TIMEOUT_S", 300));
  int num_threads = BenchNumThreads();
  const char* gate_env = std::getenv("TMERGE_STREAM_GATE");
  bool gated = gate_env != nullptr && std::string(gate_env) == "1";

  std::cout << "bench_stream: " << cameras << " cameras x " << frames
            << " frames, merge workers=" << num_threads
            << " (0 = hardware), watchdog=" << timeout_s << "s"
            << (check_determinism ? ", determinism check on" : "")
            << (gated ? ", gate on" : "") << (tracing ? ", tracing on" : "")
            << "\n";

  Watchdog watchdog(timeout_s, trace_path);
  SoakSetup setup = BuildSetup(cameras, frames);

  merge::TMergeOptions tmerge_options;
  merge::TMergeSelector tmerge_selector(tmerge_options);
  gate::GateConfig gate_config;
  gate_config.enabled = true;
  gate_config.prefetch_ambiguous = true;
  gate::GatedSelector gated_selector(tmerge_selector, gate_config);
  merge::CandidateSelector& selector =
      gated ? static_cast<merge::CandidateSelector&>(gated_selector)
            : tmerge_selector;

  std::int64_t start_ns = obs::TraceClockNanos();
  stream::StreamResult result =
      RunSoak(setup, selector, num_threads, StallDumpPath(trace_path), gated);
  double elapsed_s =
      obs::TraceClockSecondsBetween(start_ns, obs::TraceClockNanos());

  std::vector<double> latencies;
  for (const auto& camera : result.cameras) {
    latencies.insert(latencies.end(),
                     camera.window_close_latency_seconds.begin(),
                     camera.window_close_latency_seconds.end());
  }
  double p99_close_s = Percentile99(std::move(latencies));
  double frames_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(result.frames_ingested) / elapsed_s
                      : 0.0;
  double tracks_per_sec =
      elapsed_s > 0.0
          ? static_cast<double>(result.tracks_finalized) / elapsed_s
          : 0.0;

  core::TablePrinter table(
      {"cameras", "frames", "tracks/s", "frames/s", "p99-close-s",
       "backpressure", "peak-queued", "merge-jobs", "force-flushes"});
  table.AddRow()
      .AddInt(cameras)
      .AddInt(result.frames_ingested)
      .AddNumber(tracks_per_sec, 1)
      .AddNumber(frames_per_sec, 1)
      .AddNumber(p99_close_s, 3)
      .AddInt(result.backpressure_events)
      .AddInt(result.peak_queued_frames)
      .AddInt(result.merge_jobs_run)
      .AddInt(result.director.force_flushes);

  std::cout << "BENCH_JSON {\"bench\":\"stream_soak\",\"cameras\":" << cameras
            << ",\"frames_per_camera\":" << frames
            << ",\"elapsed_ns\":" << elapsed_s * 1e9
            << ",\"tracks_per_sec\":" << tracks_per_sec
            << ",\"frames_per_sec\":" << frames_per_sec
            << ",\"p99_window_close_s\":" << p99_close_s
            << ",\"windows\":" << result.windows
            << ",\"pairs\":" << result.pairs
            << ",\"backpressure_events\":" << result.backpressure_events
            << ",\"peak_queued_frames\":" << result.peak_queued_frames
            << ",\"merge_jobs\":" << result.merge_jobs_run
            << ",\"merge_jobs_deferred\":" << result.director.merge_jobs_deferred
            << ",\"force_flushes\":" << result.director.force_flushes
            << ",\"stall_flushes\":" << result.director.stall_flushes << "}\n";

  std::cout << "=== Streaming soak: admission-controlled multi-camera "
               "ingest ===\n";
  table.Print(std::cout);

  int failures = 0;
  // Soak invariants (ISSUE acceptance): backpressure must have engaged —
  // budgets this tight against this load cannot run entirely in the
  // clear — and the backlog must respect the per-camera queue cap.
  if (result.backpressure_events == 0) {
    std::cerr << "bench_stream: FAIL — backpressure never engaged; the "
                 "soak did not exercise admission control\n";
    ++failures;
  }
  std::int64_t queue_bound =
      static_cast<std::int64_t>(cameras) * 16;  // max_queued_frames_per_camera
  if (result.peak_queued_frames > queue_bound) {
    std::cerr << "bench_stream: FAIL — peak queued frames "
              << result.peak_queued_frames << " exceeds the bound "
              << queue_bound << "\n";
    ++failures;
  }
  if (result.frames_ingested !=
      static_cast<std::int64_t>(cameras) * frames) {
    std::cerr << "bench_stream: FAIL — ingested " << result.frames_ingested
              << " frames, expected "
              << static_cast<std::int64_t>(cameras) * frames << "\n";
    ++failures;
  }

  // Dump before the determinism re-run: the batch reference pipeline is
  // instrumented too, and letting it run with the recorder armed laps the
  // per-thread rings and evicts the soak-era events this artifact exists
  // to hold. Stopping the recorder freezes the flight recording (buffered
  // events stay readable for the watchdog, should it still fire). The
  // success-path artifact is what the CI trace-smoke leg validates and
  // what tools/trace_summarize.py reads; the failure-path dump is the
  // post-mortem next to the BENCH_JSON numbers. A determinism divergence
  // found below still fails the run, and the soak trace on disk is the
  // recording that matters for it.
  DumpTrace(trace_path,
            failures == 0 ? "stream soak" : "soak-failure post-mortem");
  obs::TraceRecorder::Default().Stop();
  // The metrics snapshot goes out here for the same reason: the batch
  // replay folds its windows into the same evaluate.*, reid.* and gate.*
  // counters as the soak and would double them.
  EmitObsSnapshot("stream_soak");

  if (check_determinism) {
    int divergent = CheckDeterminism(setup, selector, result, gated);
    if (divergent > 0) {
      std::cerr << "bench_stream: FAIL — " << divergent
                << " camera(s) diverged from the batch pipeline\n";
      ++failures;
    } else {
      std::cout << "determinism check: all " << cameras
                << " cameras bit-identical to the batch pipeline\n";
    }
  }

  if (failures == 0) {
    std::cout << "bench_stream: OK\n";
    return 0;
  }
  return 1;
}

}  // namespace
}  // namespace tmerge::bench

int main(int argc, char** argv) {
  bool check_determinism = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check-determinism") {
      check_determinism = true;
    } else {
      std::cerr << "usage: bench_stream [--check-determinism]\n";
      return 2;
    }
  }
  return tmerge::bench::Run(check_determinism);
}
