// The stream workload: 16 KITTI-like cameras through stream::StreamService
// with a gated TMerge selector (gate on, ambiguous-pair prefetch), the
// service-owned EmbedScheduler and two merge workers.
//
// One producer thread replays the cameras' detection frames round-robin in
// a closed loop, stamping frame f of every camera on a fixed 30 fps sim-time
// schedule. A backpressure verdict is retried after advancing sim time by
// 0.25 s, so producer stalls show up in the window-close latency. Director
// budgets are the tight ones of bench_stream, so admission control,
// deferral and the stall watchdog all engage.

#include <algorithm>
#include <iterator>
#include <memory>
#include <ostream>

#include "probes.h"
#include "stats.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/stream/stream_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tmerge::stream::CameraStreamResult;
using tmerge::stream::StreamResult;

constexpr std::int32_t kCameras = 16;
constexpr std::int32_t kFramesPerCamera = 3000;
constexpr int kMergeWorkers = 2;

tmerge::gate::GateConfig GateOn() {
  tmerge::gate::GateConfig config;
  config.enabled = true;
  config.prefetch_ambiguous = true;
  return config;
}

/// outer TimedSelector -> GatedSelector -> inner TimedSelector -> TMerge.
/// The inner decorator sits inside the gate, so the gate's own time is the
/// outer span minus the inner one.
struct SelectorChain {
  tmerge::merge::TMergeSelector tmerge;
  TimedSelector inner{tmerge, "select.tmerge"};
  tmerge::gate::GatedSelector gated{inner, GateOn()};
  TimedSelector outer{gated, "gate"};
};

tmerge::merge::SelectorOptions SessionSelectorOptions(std::uint64_t seed) {
  tmerge::merge::SelectorOptions options;
  options.seed = 5 + seed;
  return options;
}

tmerge::stream::StreamServiceConfig ServiceConfig(
    const WorkloadInputs& inputs, std::uint64_t seed) {
  tmerge::stream::StreamServiceConfig config;
  config.window = inputs.pipeline.window;
  config.selector = SessionSelectorOptions(seed);
  config.num_threads = kMergeWorkers;
  config.enable_embed_scheduler = true;
  const std::int64_t fleet = static_cast<std::int64_t>(inputs.detections.size());
  config.max_queued_frames_per_camera = 16;
  config.director.max_intermediate_pairs = 8 * fleet;
  config.director.min_pairs_per_merge_job = 64;
  config.director.max_inflight_merge_jobs = 8;
  config.director.stall_timeout_seconds = 2.0;
  config.ingest_pair_estimate = 8;
  return config;
}

struct Session {
  double wall_s = 0.0;
  std::vector<double> ingest_us;
  long long lost_frames = 0;  ///< Ingests rejected or dropped.
  StreamResult result;
};

/// One streaming session, from the first IngestFrame to Finish returning.
/// The service (and its worker threads) is gone when this returns.
Session RunSession(
    const WorkloadInputs& inputs,
    const std::vector<std::shared_ptr<const tmerge::reid::ReidModel>>& models,
    tmerge::merge::CandidateSelector& selector, std::uint64_t seed) {
  SpanRecorder& recorder = SpanRecorder::Get();
  static const int kIngest = recorder.Layer("stream.ingest");
  static const int kClose = recorder.Layer("stream.close");
  static const int kFinish = recorder.Layer("stream.finish");

  tmerge::stream::StreamService service(ServiceConfig(inputs, seed), selector);
  std::int32_t max_frames = 0;
  for (std::size_t i = 0; i < inputs.detections.size(); ++i) {
    const auto& sequence = inputs.detections[i];
    tmerge::stream::CameraConfig camera;
    camera.num_frames = sequence.num_frames;
    camera.frame_width = sequence.frame_width;
    camera.frame_height = sequence.frame_height;
    camera.fps = sequence.fps;
    camera.model = models[i];
    service.AddCamera(camera);
    max_frames = std::max(max_frames, sequence.num_frames);
  }

  Session session;
  session.ingest_us.reserve(inputs.fingerprint.frames);
  const std::size_t cameras = inputs.detections.size();
  const double frame_step = 1.0 / (30.0 * static_cast<double>(cameras));
  double now = 0.0;
  long long start = NowNs();
  for (std::int32_t f = 0; f < max_frames; ++f) {
    for (std::size_t cam = 0; cam < cameras; ++cam) {
      if (f >= inputs.detections[cam].num_frames) continue;
      now += frame_step;
      for (;;) {
        long long call = NowNs();
        tmerge::stream::IngestOutcome outcome;
        {
          ScopedSpan span(kIngest);
          outcome = service.IngestFrame(static_cast<std::int32_t>(cam),
                                        inputs.detections[cam].frames[f], now);
        }
        session.ingest_us.push_back(1e-3 * static_cast<double>(NowNs() - call));
        if (outcome == tmerge::stream::IngestOutcome::kBackpressure) {
          now += 0.25;  // The producer stalls; sim time moves on.
          continue;
        }
        if (outcome != tmerge::stream::IngestOutcome::kAccepted) {
          ++session.lost_frames;
        }
        break;
      }
    }
  }
  for (std::size_t cam = 0; cam < cameras; ++cam) {
    ScopedSpan span(kClose);
    service.CloseCamera(static_cast<std::int32_t>(cam), now);
  }
  {
    ScopedSpan span(kFinish);
    session.result = service.Finish(now + 1.0);
  }
  session.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  return session;
}

bool SameCamera(const CameraStreamResult& a, const CameraStreamResult& b) {
  return a.candidates == b.candidates &&
         a.simulated_seconds == b.simulated_seconds &&
         a.windows == b.windows && a.pairs == b.pairs &&
         a.box_pairs_evaluated == b.box_pairs_evaluated &&
         a.usage.single_inferences == b.usage.single_inferences &&
         a.usage.batched_crops == b.usage.batched_crops &&
         a.usage.batch_calls == b.usage.batch_calls &&
         a.usage.distance_evals == b.usage.distance_evals &&
         a.usage.cache_hits == b.usage.cache_hits &&
         a.usage.gate_accepted == b.usage.gate_accepted &&
         a.usage.gate_rejected == b.usage.gate_rejected &&
         a.usage.gate_ambiguous == b.usage.gate_ambiguous;
}

void CheckSession(const Session& session, const Session& reference,
                  const std::string& what, Report& report) {
  report.Attempt(static_cast<long long>(session.ingest_us.size()));
  if (session.lost_frames > 0) {
    report.Fail(session.lost_frames, what + ": ingests rejected or dropped");
  }
  for (std::size_t c = 0; c < reference.result.cameras.size(); ++c) {
    report.Attempt();
    if (!SameCamera(session.result.cameras[c], reference.result.cameras[c])) {
      report.Fail(1, what + ": camera " + std::to_string(c) +
                         " output differs from the reference session");
    }
  }
}

/// The batch pipeline over the same videos, with the undecorated gated
/// selector and an EmbedScheduler of its own: every camera's streamed
/// output must equal it bit for bit (bench_stream --check-determinism).
void CheckAgainstBatch(const WorkloadInputs& inputs, const Session& reference,
                       std::uint64_t seed, Report& report) {
  tmerge::merge::TMergeSelector tmerge;
  tmerge::gate::GatedSelector gated(tmerge, GateOn());
  tmerge::reid::EmbedScheduler scheduler{tmerge::reid::EmbedSchedulerConfig{},
                                         nullptr};
  tmerge::merge::SelectorOptions options = SessionSelectorOptions(seed);
  options.embed_scheduler = &scheduler;
  for (std::size_t c = 0; c < inputs.prepared.size(); ++c) {
    tmerge::merge::EvalResult batch =
        tmerge::merge::EvaluateSelector(inputs.prepared[c], gated, options);
    CameraStreamResult expected;
    expected.candidates = batch.candidates;
    expected.simulated_seconds = batch.simulated_seconds;
    expected.windows = batch.windows;
    expected.pairs = batch.pairs;
    expected.box_pairs_evaluated = batch.box_pairs_evaluated;
    expected.usage = batch.usage;
    report.Attempt();
    if (!SameCamera(reference.result.cameras[c], expected)) {
      report.Fail(1, "camera " + std::to_string(c) +
                         " streamed output differs from the batch pipeline");
    }
  }
}

void AddCounters(StreamCounters& counters, const StreamResult& result) {
  counters.backpressure_events += static_cast<double>(result.backpressure_events);
  counters.peak_queued_frames += static_cast<double>(result.peak_queued_frames);
  counters.merge_jobs += static_cast<double>(result.merge_jobs_run);
  counters.merge_jobs_deferred +=
      static_cast<double>(result.director.merge_jobs_deferred);
  counters.ingest_jobs_deferred +=
      static_cast<double>(result.director.ingest_jobs_deferred);
  counters.force_flushes += static_cast<double>(result.director.force_flushes);
  counters.stall_flushes += static_cast<double>(result.director.stall_flushes);
}

}  // namespace

void RunStreamWorkload(const RunOptions& options, Report& report,
                       std::ostream& out) {
  InputSpec spec;
  spec.profile = tmerge::sim::DatasetProfile::kKittiLike;
  spec.videos = kCameras;
  spec.frames = kFramesPerCamera;
  spec.window.length = 120;
  spec.seed = options.seed;
  SpanRecorder& recorder = SpanRecorder::Get();
  TracedTotals traced;

  std::vector<double> setup_s;
  std::unique_ptr<WorkloadInputs> inputs =
      SetUp(spec, options, report, traced, setup_s, out);

  std::vector<std::shared_ptr<const tmerge::reid::ReidModel>> models;
  std::vector<std::shared_ptr<const tmerge::reid::ReidModel>> traced_models;
  const int embed_layer = recorder.Layer("reid.embed");
  const int session_layer = recorder.Layer("session");
  for (const auto& video : inputs->prepared) {
    models.push_back(video.model);
    traced_models.push_back(
        std::make_shared<TracedReidModel>(video.model, embed_layer));
  }

  SelectorChain chain;
  Session reference = RunSession(*inputs, models, chain.outer, options.seed);
  chain.outer.TakeTally();
  chain.inner.TakeTally();

  std::vector<double> frames_per_s;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> ingest_us;
  std::vector<double> close_sim_s;
  std::vector<double> select_ms;
  long long deadline = NowNs() + static_cast<long long>(options.seconds * 1e9);
  do {
    Session session = RunSession(*inputs, models, chain.outer, options.seed);
    CheckSession(session, reference, "timed session", report);
    untraced_wall.push_back(session.wall_s);
    frames_per_s.push_back(
        static_cast<double>(session.result.frames_ingested) / session.wall_s);
    ingest_us.insert(ingest_us.end(), session.ingest_us.begin(),
                     session.ingest_us.end());
    for (const CameraStreamResult& camera : session.result.cameras) {
      close_sim_s.insert(close_sim_s.end(),
                         camera.window_close_latency_seconds.begin(),
                         camera.window_close_latency_seconds.end());
    }
    SelectTally outer = chain.outer.TakeTally();
    select_ms.insert(select_ms.end(), outer.latency_ms.begin(),
                     outer.latency_ms.end());
    chain.inner.TakeTally();
    if (!options.trace) continue;

    recorder.Start();
    Session traced_session;
    {
      ScopedSpan root(session_layer);
      traced_session =
          RunSession(*inputs, traced_models, chain.outer, options.seed);
    }
    recorder.Stop();
    traced.layers.Add(recorder.Drain());
    traced_wall.push_back(traced_session.wall_s);
    CheckSession(traced_session, reference, "traced session", report);
    traced.selectors["gate"] += chain.outer.TakeTally();
    traced.selectors["select.tmerge"] += chain.inner.TakeTally();
    AddCounters(traced.stream, traced_session.result);
  } while (NowNs() < deadline);

  CheckAgainstBatch(*inputs, reference, options.seed, report);

  long long hits = 0;
  long long truth = 0;
  for (std::size_t c = 0; c < inputs->prepared.size(); ++c) {
    const auto& candidates = reference.result.cameras[c].candidates;
    const auto& pairs = inputs->prepared[c].truth;
    std::vector<tmerge::metrics::TrackPairKey> common;
    std::set_intersection(candidates.begin(), candidates.end(), pairs.begin(),
                          pairs.end(), std::back_inserter(common));
    hits += static_cast<long long>(common.size());
    truth += static_cast<long long>(pairs.size());
  }
  const StreamResult& result = reference.result;
  const long long sessions = static_cast<long long>(untraced_wall.size());
  out << "=== reference session ===\n  windows=" << result.windows
      << " pairs=" << result.pairs
      << " backpressure=" << result.backpressure_events
      << " merge_jobs=" << result.merge_jobs_run
      << " merge_jobs_deferred=" << result.director.merge_jobs_deferred
      << " stall_flushes=" << result.director.stall_flushes << "\n";
  out << "session walls (s):";
  for (double wall : untraced_wall) out << " " << wall;
  out << "\n";
  report.Add("setup_s", Median(setup_s), "s",
             static_cast<long long>(setup_s.size()));
  report.Add("frames_per_s", Median(frames_per_s), "frames/s", sessions,
             "median over sessions");
  report.Add("sim_fps",
             static_cast<double>(result.frames_ingested) /
                 result.simulated_seconds,
             "frames/sim-s", result.windows);
  report.Add("rec", static_cast<double>(hits) / static_cast<double>(truth),
             "fraction", truth, "vs the batch truth of the same videos");
  report.AddLatency("select_ms", select_ms, "ms");
  report.AddLatency("ingest_us", ingest_us, "us");
  report.AddLatency("close_sim_s", close_sim_s, "sim-s");

  if (options.trace) {
    traced.fingerprint = inputs->fingerprint;
    traced.outer_layers = {"gate"};
    traced.merge_workers = kMergeWorkers;
    traced.root_layer = "session";
    traced.traced_wall_s = Median(traced_wall);
    traced.untraced_wall_s = Median(untraced_wall);
    AddCostModelAudit(inputs->prepared.front(), options.seed, report, out);
    AddPerLayerMetrics(traced, report, out);
  }
}

}  // namespace perfbench
