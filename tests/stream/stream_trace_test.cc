// Flight-recorder integration over the streaming path: with tracing on,
// an end-to-end stream must emit begin/end pairs for frame ingest, window
// close, director admission and merge jobs (with camera/window args) plus
// the enqueue/dequeue/submit instants; with tracing off vs on, the
// SelectionResults must stay bit-identical (observation must never change
// what the system computes); and the stall watchdog must write its
// Chrome-trace post-mortem exactly when configured and recording (the
// tests provoke the stall with the "stream.director.defer" failpoint: a
// healthy stream never stalls).

#include "tmerge/stream/stream_service.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/detect/detection_simulator.h"
#include "tmerge/fault/registry.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/trace.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"

namespace tmerge::stream {
namespace {

struct StreamInputs {
  sim::Dataset dataset;
  std::vector<detect::DetectionSequence> detections;
  std::vector<std::shared_ptr<const reid::ReidModel>> models;
  merge::PipelineConfig pipeline;
};

/// Small fleet with an explicit frame count, so a serial run's event
/// volume stays well inside one default ring (no wraparound: the tests
/// below can assert exact begin/end balance).
StreamInputs BuildInputs(std::int32_t cameras, std::int32_t frames,
                         std::int32_t window_length = 60) {
  StreamInputs in;
  in.pipeline.window.length = window_length;
  in.pipeline.seed = 42;
  in.pipeline.num_threads = 1;
  sim::VideoConfig base = sim::ProfileConfig(sim::DatasetProfile::kKittiLike);
  base.num_frames = frames;
  in.dataset.name = "stream-trace";
  in.dataset.profile = sim::DatasetProfile::kKittiLike;
  for (std::int32_t i = 0; i < cameras; ++i) {
    in.dataset.videos.push_back(
        sim::GenerateVideo(base, in.pipeline.seed + i));
  }
  for (std::size_t i = 0; i < in.dataset.videos.size(); ++i) {
    std::uint64_t seed = in.pipeline.seed + 31 * (i + 1);
    in.detections.push_back(detect::SimulateDetections(
        in.dataset.videos[i], in.pipeline.detector, seed));
    in.models.push_back(std::make_shared<reid::SyntheticReidModel>(
        in.dataset.videos[i], in.pipeline.reid, seed));
  }
  return in;
}

StreamResult RunStream(const StreamInputs& in,
                       merge::CandidateSelector& selector,
                       StreamServiceConfig config) {
  config.window = in.pipeline.window;
  merge::SelectorOptions options;
  options.seed = 5;
  config.selector = options;
  StreamService service(config, selector);
  std::int32_t max_frames = 0;
  for (std::size_t i = 0; i < in.detections.size(); ++i) {
    CameraConfig camera;
    camera.num_frames = in.detections[i].num_frames;
    camera.frame_width = in.detections[i].frame_width;
    camera.frame_height = in.detections[i].frame_height;
    camera.fps = in.detections[i].fps;
    camera.model = in.models[i];
    service.AddCamera(camera);
    max_frames = std::max(max_frames, in.detections[i].num_frames);
  }
  double now = 0.0;
  for (std::int32_t f = 0; f < max_frames; ++f) {
    for (std::size_t cam = 0; cam < in.detections.size(); ++cam) {
      if (f >= in.detections[cam].num_frames) continue;
      now += 1.0 / 30.0;
      for (int attempts = 0; attempts < 10000; ++attempts) {
        IngestOutcome outcome = service.IngestFrame(
            static_cast<std::int32_t>(cam), in.detections[cam].frames[f],
            now);
        if (outcome != IngestOutcome::kBackpressure) break;
        now += 0.5;  // Producer stall; arms the director's stall watchdog.
      }
    }
  }
  for (std::size_t cam = 0; cam < in.detections.size(); ++cam) {
    service.CloseCamera(static_cast<std::int32_t>(cam), now);
  }
  return service.Finish(now + 1.0);
}

int CountEvents(const obs::TraceSnapshot& snapshot, const char* name,
                obs::TracePhase phase) {
  int count = 0;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.phase == phase && std::strcmp(event.name, name) == 0) ++count;
  }
  return count;
}

const obs::TraceEvent* FirstEvent(const obs::TraceSnapshot& snapshot,
                                  const char* name, obs::TracePhase phase) {
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.phase == phase && std::strcmp(event.name, name) == 0) {
      return &event;
    }
  }
  return nullptr;
}

class StreamTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::GlobalRegistry().Reset(); }
  void TearDown() override {
    obs::TraceRecorder::Default().Stop();
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }
};

TEST_F(StreamTraceTest, TraceCapturesStreamingPathEndToEnd) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  recorder.Start();
  merge::TMergeSelector selector;
  StreamInputs in = BuildInputs(/*cameras=*/2, /*frames=*/150);
  StreamServiceConfig config;
  config.num_threads = 1;
  StreamResult result = RunStream(in, selector, config);
  recorder.Stop();
  obs::TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_LT(snapshot.total_recorded,
            static_cast<std::int64_t>(recorder.options().events_per_thread))
      << "ring wrapped; the balance assertions below assume a full record";

  // The acceptance stages all bracket as begin/end pairs.
  for (const char* name :
       {"stream.frame.ingest", "stream.window.close",
        "stream.director.admit", "stream.merge_job.run"}) {
    SCOPED_TRACE(name);
    EXPECT_GT(CountEvents(snapshot, name, obs::TracePhase::kBegin), 0);
    EXPECT_EQ(CountEvents(snapshot, name, obs::TracePhase::kBegin),
              CountEvents(snapshot, name, obs::TracePhase::kEnd));
  }

  // Identifying args ride on the begin edge.
  const obs::TraceEvent* ingest =
      FirstEvent(snapshot, "stream.frame.ingest", obs::TracePhase::kBegin);
  ASSERT_NE(ingest, nullptr);
  EXPECT_STREQ(ingest->args[0].key, "camera");
  EXPECT_STREQ(ingest->args[1].key, "frame");
  EXPECT_NE(ingest->sim_seconds, obs::kTraceNoSimTime);
  const obs::TraceEvent* close =
      FirstEvent(snapshot, "stream.window.close", obs::TracePhase::kBegin);
  ASSERT_NE(close, nullptr);
  EXPECT_STREQ(close->args[0].key, "camera");
  EXPECT_STREQ(close->args[1].key, "window");
  const obs::TraceEvent* run =
      FirstEvent(snapshot, "stream.merge_job.run", obs::TracePhase::kBegin);
  ASSERT_NE(run, nullptr);
  EXPECT_STREQ(run->args[0].key, "camera");

  // Queue handoffs: one enqueue per ingested frame, one dequeue each.
  EXPECT_EQ(CountEvents(snapshot, "stream.frame.enqueue",
                        obs::TracePhase::kInstant),
            result.frames_ingested);
  EXPECT_EQ(CountEvents(snapshot, "stream.frame.dequeue",
                        obs::TracePhase::kInstant),
            result.frames_ingested);
  EXPECT_EQ(CountEvents(snapshot, "stream.merge_job.submit",
                        obs::TracePhase::kInstant),
            result.merge_jobs_run);
  // Gauges sampled as counter series whenever the pump runs.
  EXPECT_GT(CountEvents(snapshot, "stream.queued_frames",
                        obs::TracePhase::kCounter),
            0);
}

TEST_F(StreamTraceTest, TracingOnAndOffProduceBitIdenticalResults) {
  StreamInputs in = BuildInputs(/*cameras=*/2, /*frames=*/150);
  StreamServiceConfig config;
  config.num_threads = 1;

  obs::TraceRecorder::Default().Stop();
  merge::TMergeSelector selector_off;
  StreamResult off = RunStream(in, selector_off, config);

  obs::TraceRecorder::Default().Start();
  merge::TMergeSelector selector_on;
  StreamResult on = RunStream(in, selector_on, config);
  obs::TraceRecorder::Default().Stop();

  ASSERT_EQ(on.cameras.size(), off.cameras.size());
  for (std::size_t i = 0; i < on.cameras.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(on.cameras[i].candidates, off.cameras[i].candidates);
    EXPECT_EQ(on.cameras[i].simulated_seconds,
              off.cameras[i].simulated_seconds);
    EXPECT_EQ(on.cameras[i].windows, off.cameras[i].windows);
    EXPECT_EQ(on.cameras[i].pairs, off.cameras[i].pairs);
    EXPECT_EQ(on.cameras[i].usage.single_inferences,
              off.cameras[i].usage.single_inferences);
    EXPECT_EQ(on.cameras[i].usage.batched_crops,
              off.cameras[i].usage.batched_crops);
    EXPECT_EQ(on.cameras[i].usage.distance_evals,
              off.cameras[i].usage.distance_evals);
    EXPECT_EQ(on.cameras[i].usage.cache_hits, off.cameras[i].usage.cache_hits);
  }
  EXPECT_EQ(on.windows, off.windows);
  EXPECT_EQ(on.pairs, off.pairs);
  EXPECT_EQ(on.simulated_seconds, off.simulated_seconds);
}

/// Budgets far below one window's pair count, so ingest blocks as soon as
/// a window is pending. The director is work-conserving, so budgets alone
/// no longer stall a stream: ArmDeferFailpoint defers every merge job
/// outside force-flush, ingest stays blocked with nothing in flight, and
/// the stall watchdog's flush is the only way on. With a post-mortem path
/// configured and the recorder recording, the service writes the dump.
StreamServiceConfig StallingConfig() {
  StreamServiceConfig config;
  config.num_threads = 2;
  config.director.max_intermediate_pairs = 8;
  config.director.min_pairs_per_merge_job = 1000;
  config.director.max_inflight_merge_jobs = 1;
  config.director.stall_timeout_seconds = 2.0;
  config.max_queued_frames_per_camera = 8;
  config.ingest_pair_estimate = 8;
  return config;
}

void ArmDeferFailpoint() {
  fault::GlobalRegistry().SetSeed(11);
  ASSERT_TRUE(
      fault::GlobalRegistry().ApplySpec("stream.director.defer=1.0").ok());
}

TEST_F(StreamTraceTest, StallWatchdogWritesPostMortemWhenTracing) {
  const std::string path =
      testing::TempDir() + "/tmerge_stream_stall_trace.json";
  std::remove(path.c_str());
  ArmDeferFailpoint();
  obs::TraceRecorder::Default().Start();
  merge::TMergeSelector selector;
  // Bench-scale window geometry: 120-frame windows reliably close with a
  // nonzero pair backlog, which is what the tiny pair budget blocks on.
  StreamInputs in =
      BuildInputs(/*cameras=*/2, /*frames=*/300, /*window_length=*/120);
  StreamServiceConfig config = StallingConfig();
  config.stall_post_mortem_path = path;
  StreamResult result = RunStream(in, selector, config);
  obs::TraceRecorder::Default().Stop();

  ASSERT_GT(result.director.stall_flushes, 0)
      << "the defer failpoint no longer provokes the stall watchdog";
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "post-mortem not written to " << path;
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.str().find("stream.director.force_flush"),
            std::string::npos);
}

TEST_F(StreamTraceTest, StallPostMortemSkippedWhenNotRecording) {
  const std::string path =
      testing::TempDir() + "/tmerge_stream_stall_trace_off.json";
  std::remove(path.c_str());
  ArmDeferFailpoint();
  obs::TraceRecorder::Default().Stop();
  merge::TMergeSelector selector;
  StreamInputs in =
      BuildInputs(/*cameras=*/2, /*frames=*/300, /*window_length=*/120);
  StreamServiceConfig config = StallingConfig();
  config.stall_post_mortem_path = path;
  StreamResult result = RunStream(in, selector, config);
  ASSERT_GT(result.director.stall_flushes, 0);
  std::ifstream file(path);
  EXPECT_FALSE(file.good()) << "post-mortem written with tracing off";
}

// stream.track.seconds times the tracker inside ingest, the streaming
// twin of batch's prepare.track.seconds: one sample per observed frame.
TEST_F(StreamTraceTest, TrackSpanTimesEveryObservedFrame) {
  constexpr std::int32_t kCameras = 2;
  constexpr std::int32_t kFrames = 60;
  obs::SetEnabled(true);
  merge::TMergeSelector selector;
  StreamInputs in = BuildInputs(kCameras, kFrames);
  auto track_spans = [] {
    const obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
    const auto it = snapshot.histograms.find("stream.track.seconds");
    return it == snapshot.histograms.end() ? std::int64_t{0}
                                           : it->second.count;
  };
  const std::int64_t before = track_spans();
  StreamServiceConfig config;
  config.num_threads = 1;
  RunStream(in, selector, config);
  const std::int64_t after = track_spans();
  obs::SetEnabled(false);
  EXPECT_EQ(after - before, std::int64_t{kCameras} * kFrames);
}

TEST_F(StreamTraceTest, PerCameraMetricsRegisterWithLabels) {
  obs::SetEnabled(true);
  merge::TMergeSelector selector;
  StreamInputs in = BuildInputs(/*cameras=*/2, /*frames=*/60);
  StreamServiceConfig config;
  config.num_threads = 1;
  RunStream(in, selector, config);
  obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
  obs::SetEnabled(false);
  EXPECT_TRUE(snapshot.histograms.contains(
      "stream.camera.ingest_to_result.seconds{camera=\"0\"}"));
  EXPECT_TRUE(snapshot.histograms.contains(
      "stream.camera.ingest_to_result.seconds{camera=\"1\"}"));
  EXPECT_TRUE(
      snapshot.gauges.contains("stream.camera.queued_frames{camera=\"0\"}"));
}

}  // namespace
}  // namespace tmerge::stream
