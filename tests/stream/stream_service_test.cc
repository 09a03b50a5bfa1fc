// StreamService end-to-end: streamed multi-camera ingestion must reproduce
// the batch pipeline's SelectionResults bit-for-bit (the tentpole
// equivalence guarantee, DESIGN.md §11), engage backpressure under tiny
// budgets without wedging, and survive injected frame drops and executor
// rejections.

#include "tmerge/stream/stream_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tmerge/fault/registry.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::stream {
namespace {

struct BatchReference {
  sim::Dataset dataset;
  std::vector<merge::PreparedVideo> prepared;
  std::vector<merge::EvalResult> per_video;
  merge::EvalResult total;
};

merge::PipelineConfig ReferencePipelineConfig() {
  merge::PipelineConfig config;
  config.window.length = 120;
  config.seed = 42;
  config.num_threads = 1;
  return config;
}

merge::SelectorOptions ReferenceSelectorOptions() {
  merge::SelectorOptions options;
  options.seed = 5;
  return options;
}

/// Runs the batch pipeline over `num_videos` synthetic videos — the ground
/// truth the streamed results must match bit for bit.
BatchReference RunBatch(int num_videos, merge::CandidateSelector& selector) {
  BatchReference ref;
  ref.dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, num_videos, 7);
  track::SortTracker tracker;
  merge::PipelineConfig config = ReferencePipelineConfig();
  ref.prepared = merge::PrepareDataset(ref.dataset, tracker, config);
  merge::SelectorOptions options = ReferenceSelectorOptions();
  for (const merge::PreparedVideo& video : ref.prepared) {
    ref.per_video.push_back(
        merge::EvaluateSelector(video, selector, options));
  }
  ref.total = merge::EvaluateDataset(ref.prepared, selector, options, 1);
  return ref;
}

/// Streams the same dataset through a StreamService: per-camera detections
/// and models are derived with the exact per-video seeds PrepareDataset
/// uses, frames are interleaved round-robin across cameras, and
/// backpressure verdicts are retried with advancing simulated time.
StreamResult RunStream(const BatchReference& ref,
                       merge::CandidateSelector& selector,
                       StreamServiceConfig service_config) {
  merge::PipelineConfig config = ReferencePipelineConfig();
  service_config.window = config.window;
  service_config.selector = ReferenceSelectorOptions();
  StreamService service(service_config, selector);

  std::vector<detect::DetectionSequence> detections;
  std::int32_t max_frames = 0;
  for (std::size_t i = 0; i < ref.dataset.videos.size(); ++i) {
    std::uint64_t seed = config.seed + 31 * (i + 1);
    const sim::SyntheticVideo& video = ref.dataset.videos[i];
    detections.push_back(
        detect::SimulateDetections(video, config.detector, seed));
    CameraConfig camera;
    camera.num_frames = video.num_frames;
    camera.frame_width = detections.back().frame_width;
    camera.frame_height = detections.back().frame_height;
    camera.fps = detections.back().fps;
    camera.model = std::make_shared<reid::SyntheticReidModel>(
        video, config.reid, seed);
    EXPECT_EQ(service.AddCamera(camera), static_cast<std::int32_t>(i));
    max_frames = std::max(max_frames, video.num_frames);
  }

  double now = 0.0;
  for (std::int32_t f = 0; f < max_frames; ++f) {
    for (std::size_t cam = 0; cam < detections.size(); ++cam) {
      if (f >= detections[cam].num_frames) continue;
      now += 1.0 / 30.0;
      int attempts = 0;
      for (;;) {
        IngestOutcome outcome = service.IngestFrame(
            static_cast<std::int32_t>(cam), detections[cam].frames[f], now);
        if (outcome != IngestOutcome::kBackpressure) break;
        // Backpressure: sim-time advances while the producer spins, which
        // is what arms the director's stall watchdog.
        now += 0.5;
        if (++attempts >= 10000) {
          MergeDirectorStats stats = service.director_stats();
          ADD_FAILURE() << "ingest wedged on camera " << cam << " frame " << f
                        << " pending=" << stats.pending_pairs
                        << " inflight=" << stats.inflight_merge_jobs
                        << " merge_admitted=" << stats.merge_jobs_admitted
                        << " merge_deferred=" << stats.merge_jobs_deferred
                        << " force_flush=" << stats.force_flush
                        << " queued=" << service.queued_frames();
          break;
        }
      }
    }
  }
  for (std::size_t cam = 0; cam < detections.size(); ++cam) {
    service.CloseCamera(static_cast<std::int32_t>(cam), now);
  }
  return service.Finish(now + 1.0);
}

/// The equivalence assertion: per-camera streamed selection output equals
/// the per-video batch output, and the ordered aggregates match
/// EvaluateDataset's.
void ExpectMatchesBatch(const StreamResult& stream,
                        const BatchReference& ref) {
  ASSERT_EQ(stream.cameras.size(), ref.per_video.size());
  for (std::size_t i = 0; i < ref.per_video.size(); ++i) {
    SCOPED_TRACE(i);
    const CameraStreamResult& camera = stream.cameras[i];
    const merge::EvalResult& batch = ref.per_video[i];
    EXPECT_EQ(camera.candidates, batch.candidates);
    EXPECT_TRUE(camera.SameWork(batch));
    EXPECT_EQ(camera.tracks_finalized,
              static_cast<std::int64_t>(ref.prepared[i].tracking.tracks.size()));
    EXPECT_EQ(camera.window_close_latency_seconds.size(),
              static_cast<std::size_t>(camera.windows));
  }
  EXPECT_TRUE(stream.SameWork(ref.total));
}

class StreamServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::GlobalRegistry().Reset(); }
  void TearDown() override {
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }
};

TEST_F(StreamServiceTest, StreamedSelectionMatchesBatchSerial) {
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/3, selector);
  StreamServiceConfig config;
  config.num_threads = 1;
  StreamResult stream = RunStream(ref, selector, config);
  ExpectMatchesBatch(stream, ref);
  EXPECT_EQ(stream.frames_dropped, 0);
  EXPECT_GT(stream.merge_jobs_run, 0);
  EXPECT_TRUE(stream.director.force_flush);
}

TEST_F(StreamServiceTest, StreamedSelectionMatchesBatchThreaded) {
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/3, selector);
  StreamServiceConfig config;
  config.num_threads = 4;
  StreamResult stream = RunStream(ref, selector, config);
  ExpectMatchesBatch(stream, ref);
}

TEST_F(StreamServiceTest, TinyBudgetsEngageBackpressureWithoutDivergence) {
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/2, selector);
  StreamServiceConfig config;
  config.num_threads = 2;
  // Budgets far below one window's pair count: ingest must block and
  // backpressure engage, and the results must still be identical —
  // admission control changes *when* work runs, never *what* it computes.
  config.director.max_intermediate_pairs = 32;
  config.director.min_pairs_per_merge_job = 16;
  config.director.max_inflight_merge_jobs = 1;
  config.director.stall_timeout_seconds = 2.0;
  config.max_queued_frames_per_camera = 8;
  config.ingest_pair_estimate = 8;
  StreamResult stream = RunStream(ref, selector, config);
  ExpectMatchesBatch(stream, ref);
  EXPECT_GT(stream.backpressure_events, 0);
  EXPECT_GT(stream.director.ingest_jobs_deferred, 0);
  // A blocked stream with an idle worker always has an admissible merge
  // job, so the stall watchdog never fires (DESIGN.md §11.4).
  EXPECT_EQ(stream.director.stall_flushes, 0);
  // Bounded queues are the whole point of the backpressure contract.
  EXPECT_LE(stream.peak_queued_frames,
            static_cast<std::int64_t>(stream.cameras.size()) *
                config.max_queued_frames_per_camera);
}

TEST_F(StreamServiceTest, DeferFailpointWithoutWatchdogStillDrains) {
  // An injected scheduler hiccup defers one merge probe, not the stream:
  // with the watchdog off, the next pump probes the camera again.
  fault::GlobalRegistry().SetSeed(31);
  ASSERT_TRUE(
      fault::GlobalRegistry().ApplySpec("stream.director.defer=0.5").ok());
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/2, selector);
  StreamServiceConfig config;
  config.num_threads = 2;
  config.director.max_intermediate_pairs = 32;
  config.director.min_pairs_per_merge_job = 16;
  config.director.max_inflight_merge_jobs = 1;
  config.director.stall_timeout_seconds = 0.0;
  config.max_queued_frames_per_camera = 8;
  config.ingest_pair_estimate = 8;
  StreamResult stream = RunStream(ref, selector, config);
  ExpectMatchesBatch(stream, ref);
  EXPECT_GT(stream.director.merge_jobs_deferred, 0);
  EXPECT_EQ(stream.director.stall_flushes, 0);
}

TEST_F(StreamServiceTest, ZeroCameraStreamFinishesEmpty) {
  merge::TMergeSelector selector;
  StreamService service(StreamServiceConfig{}, selector);
  StreamResult result = service.Finish(/*now_seconds=*/0.0);
  EXPECT_TRUE(result.cameras.empty());
  EXPECT_EQ(result.windows, 0);
  EXPECT_EQ(result.merge_jobs_run, 0);
  EXPECT_TRUE(result.director.force_flush);
}

TEST_F(StreamServiceTest, EmptyCameraProducesNoWindows) {
  merge::TMergeSelector selector;
  StreamServiceConfig config;
  StreamService service(config, selector);
  CameraConfig camera;
  camera.num_frames = 0;
  camera.model = std::make_shared<reid::SyntheticReidModel>(
      sim::SyntheticVideo{}, reid::ReidModelConfig{}, 1);
  std::int32_t id = service.AddCamera(camera);
  service.CloseCamera(id, 0.0);
  StreamResult result = service.Finish(1.0);
  ASSERT_EQ(result.cameras.size(), 1u);
  EXPECT_EQ(result.cameras[0].windows, 0);
  EXPECT_EQ(result.cameras[0].frames_ingested, 0);
}

TEST_F(StreamServiceTest, IngestAfterCloseIsRejected) {
  merge::TMergeSelector selector;
  StreamService service(StreamServiceConfig{}, selector);
  CameraConfig camera;
  camera.num_frames = 10;
  camera.frame_width = 1920;
  camera.frame_height = 1080;
  camera.model = std::make_shared<reid::SyntheticReidModel>(
      sim::SyntheticVideo{}, reid::ReidModelConfig{}, 1);
  std::int32_t id = service.AddCamera(camera);
  service.CloseCamera(id, 0.0);

  detect::DetectionFrame frame;
  frame.frame = 0;
  EXPECT_EQ(service.IngestFrame(id, frame, 0.1), IngestOutcome::kRejected);
  EXPECT_EQ(service.IngestFrame(99, frame, 0.1), IngestOutcome::kRejected);
  service.Finish(1.0);
}

TEST_F(StreamServiceTest, DroppedFramesDegradeGracefully) {
  fault::GlobalRegistry().SetSeed(23);
  ASSERT_TRUE(
      fault::GlobalRegistry().ApplySpec("stream.camera.drop_frame=0.2").ok());
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/2, selector);
  StreamServiceConfig config;
  config.num_threads = 2;
  StreamResult stream = RunStream(ref, selector, config);
  // Lost frames mean lost detections, not a lost service: every camera
  // still drains to completion with the drop count on the books.
  EXPECT_GT(stream.frames_dropped, 0);
  EXPECT_EQ(stream.frames_ingested,
            ref.total.frames);  // every frame slot was still consumed
  EXPECT_TRUE(stream.director.force_flush);
}

TEST_F(StreamServiceTest, SubmitRejectionFallsBackInlineWithoutDivergence) {
  fault::GlobalRegistry().SetSeed(29);
  ASSERT_TRUE(fault::GlobalRegistry().ApplySpec("core.pool.submit=0.5").ok());
  merge::TMergeSelector selector;
  BatchReference ref = RunBatch(/*num_videos=*/2, selector);
  StreamServiceConfig config;
  config.num_threads = 4;
  StreamResult stream = RunStream(ref, selector, config);
  // Rejected submissions run inline; selection output is unaffected.
  ExpectMatchesBatch(stream, ref);
  EXPECT_GT(stream.merge_jobs_inline_fallback, 0);
}

}  // namespace
}  // namespace tmerge::stream
