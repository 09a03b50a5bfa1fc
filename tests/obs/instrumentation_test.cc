// End-to-end check of the built-in instrumentation: runs the real pipeline
// (PrepareDataset + EvaluateDataset with TMerge) on a small dataset with
// several worker threads and asserts the default registry holds the
// documented metrics with values consistent with the pipeline's own
// results. Under the TSan CI job this doubles as the concurrency exercise
// for metric writes from pool workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "tmerge/detect/detection_simulator.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/stream/stream_service.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge {
namespace {

TEST(InstrumentationTest, PipelineRecordsDocumentedMetrics) {
  obs::SetEnabled(true);
  obs::DefaultRegistry().Reset();

  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kMot17Like, 3, /*seed=*/9001);
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.single_window = true;
  config.num_threads = 3;
  std::vector<merge::PreparedVideo> prepared =
      merge::PrepareDataset(dataset, tracker, config);

  merge::TMergeSelector selector;
  merge::SelectorOptions options;
  options.k_fraction = 0.05;
  merge::EvalResult eval =
      merge::EvaluateDataset(prepared, selector, options, /*num_threads=*/3);

  obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
  obs::SetEnabled(false);

  // Per-phase prepare spans: one record per video.
  for (const char* span :
       {"prepare.video.seconds", "prepare.detect.seconds",
        "prepare.track.seconds", "prepare.window.seconds",
        "prepare.gt_match.seconds"}) {
    ASSERT_TRUE(snapshot.histograms.contains(span)) << span;
    EXPECT_EQ(snapshot.histograms.at(span).count, 3) << span;
  }
  EXPECT_EQ(snapshot.histograms.at("prepare.dataset.seconds").count, 1);
  EXPECT_EQ(snapshot.histograms.at("evaluate.dataset.seconds").count, 1);
  EXPECT_EQ(snapshot.histograms.at("evaluate.video.seconds").count, 3);
  EXPECT_EQ(snapshot.histograms.at("evaluate.window.seconds").count,
            eval.windows);

  // Selector-loop counters agree with the EvalResult aggregation (and
  // thereby with UsageStats).
  EXPECT_EQ(snapshot.counters.at("evaluate.windows"), eval.windows);
  EXPECT_EQ(snapshot.counters.at("evaluate.pairs_scanned"), eval.pairs);
  EXPECT_EQ(snapshot.counters.at("evaluate.box_pairs_evaluated"),
            eval.box_pairs_evaluated);
  EXPECT_EQ(snapshot.counters.at("reid.inferences.single"),
            eval.usage.single_inferences);
  EXPECT_EQ(snapshot.counters.at("reid.inferences.batched_crops"),
            eval.usage.batched_crops);
  EXPECT_EQ(snapshot.counters.at("reid.batch_calls"),
            eval.usage.batch_calls);
  EXPECT_EQ(snapshot.counters.at("reid.distance_evals"),
            eval.usage.distance_evals);
  EXPECT_EQ(snapshot.counters.at("reid.cache.hits"), eval.usage.cache_hits);
  EXPECT_EQ(snapshot.counters.at("reid.cache.misses"),
            eval.usage.TotalInferences());

  // Bandit internals.
  EXPECT_EQ(snapshot.counters.at("tmerge.arm_pulls"),
            eval.box_pairs_evaluated);
  EXPECT_EQ(snapshot.histograms.at("tmerge.tau_spent_per_window").count,
            eval.windows);
  EXPECT_EQ(snapshot.histograms.at("tmerge.posterior.alpha_mean").count,
            eval.windows);

  // Thread pool: both parallel phases ran with 3 workers, so tasks were
  // submitted and timed.
  EXPECT_GE(snapshot.counters.at("core.pool.tasks"), 1);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("core.pool.workers"), 3.0);
  EXPECT_EQ(snapshot.histograms.at("core.pool.queue_wait.seconds").count,
            snapshot.counters.at("core.pool.tasks"));
  EXPECT_EQ(snapshot.histograms.at("core.pool.busy.seconds").count,
            snapshot.counters.at("core.pool.tasks"));

  // Timing-semantics contract of EvalResult: both fields populated; the
  // summed field can only exceed elapsed when videos overlap in real time.
  EXPECT_GT(eval.elapsed_seconds, 0.0);
  EXPECT_GE(eval.summed_wall_seconds, 0.0);
}

// The stream path folds its windows into the same counters as the batch
// path: a gated multi-camera session exports evaluate.*, reid.*, gate.* and
// pipeline.* counters equal to its StreamResult tally.
TEST(InstrumentationTest, StreamRecordsTheSameWindowCounters) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, 2, /*seed=*/7);
  merge::TMergeSelector tmerge;
  gate::GateConfig gate_config;
  gate_config.enabled = true;
  gate::GatedSelector selector(tmerge, gate_config);
  stream::StreamServiceConfig config;
  config.window.length = 120;
  config.num_threads = 2;

  obs::SetEnabled(true);
  obs::DefaultRegistry().Reset();
  stream::StreamService service(config, selector);
  std::vector<detect::DetectionSequence> detections;
  std::int32_t max_frames = 0;
  for (std::size_t i = 0; i < dataset.videos.size(); ++i) {
    const sim::SyntheticVideo& video = dataset.videos[i];
    detections.push_back(
        detect::SimulateDetections(video, detect::DetectorConfig{}, i + 1));
    stream::CameraConfig camera;
    camera.num_frames = video.num_frames;
    camera.frame_width = detections.back().frame_width;
    camera.frame_height = detections.back().frame_height;
    camera.fps = detections.back().fps;
    camera.model = std::make_shared<reid::SyntheticReidModel>(
        video, reid::ReidModelConfig{}, i + 1);
    service.AddCamera(camera);
    max_frames = std::max(max_frames, video.num_frames);
  }
  double now = 0.0;
  for (std::int32_t f = 0; f < max_frames; ++f) {
    for (std::size_t cam = 0; cam < detections.size(); ++cam) {
      if (f >= detections[cam].num_frames) continue;
      now += 1.0 / 30.0;
      while (service.IngestFrame(static_cast<std::int32_t>(cam),
                                 detections[cam].frames[f], now) ==
             stream::IngestOutcome::kBackpressure) {
        now += 0.5;
      }
    }
  }
  stream::StreamResult result = service.Finish(now + 1.0);
  obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
  obs::SetEnabled(false);

  ASSERT_GT(result.windows, 0);
  ASSERT_GT(result.usage.gate_ambiguous, 0);
  EXPECT_EQ(snapshot.counters.at("evaluate.windows"), result.windows);
  EXPECT_EQ(snapshot.counters.at("evaluate.pairs_scanned"), result.pairs);
  EXPECT_EQ(snapshot.counters.at("evaluate.box_pairs_evaluated"),
            result.box_pairs_evaluated);
  EXPECT_EQ(snapshot.counters.at("reid.inferences.single"),
            result.usage.single_inferences);
  EXPECT_EQ(snapshot.counters.at("reid.inferences.batched_crops"),
            result.usage.batched_crops);
  EXPECT_EQ(snapshot.counters.at("reid.batch_calls"),
            result.usage.batch_calls);
  EXPECT_EQ(snapshot.counters.at("reid.distance_evals"),
            result.usage.distance_evals);
  EXPECT_EQ(snapshot.counters.at("reid.cache.hits"), result.usage.cache_hits);
  EXPECT_EQ(snapshot.counters.at("reid.cache.misses"),
            result.usage.TotalInferences());
  EXPECT_EQ(snapshot.counters.at("gate.accepted"), result.usage.gate_accepted);
  EXPECT_EQ(snapshot.counters.at("gate.rejected"), result.usage.gate_rejected);
  EXPECT_EQ(snapshot.counters.at("gate.ambiguous"),
            result.usage.gate_ambiguous);
  EXPECT_EQ(snapshot.counters.at("pipeline.failed_pulls"),
            result.failed_pulls);
  EXPECT_EQ(snapshot.counters.at("pipeline.degraded_windows"),
            result.degraded_windows);
}

// Instrumentation must never change results: identical runs with obs on
// and off produce bit-identical evaluations.
TEST(InstrumentationTest, ObservabilityDoesNotAffectResults) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, 2, /*seed=*/77);
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.single_window = true;

  auto run = [&] {
    std::vector<merge::PreparedVideo> prepared =
        merge::PrepareDataset(dataset, tracker, config);
    merge::TMergeSelector selector;
    merge::SelectorOptions options;
    return merge::EvaluateDataset(prepared, selector, options, 2);
  };

  obs::SetEnabled(true);
  merge::EvalResult with_obs = run();
  obs::SetEnabled(false);
  merge::EvalResult without_obs = run();

  EXPECT_EQ(with_obs.rec, without_obs.rec);
  EXPECT_EQ(with_obs.hits, without_obs.hits);
  EXPECT_EQ(with_obs.candidates, without_obs.candidates);
  EXPECT_EQ(with_obs.usage.single_inferences,
            without_obs.usage.single_inferences);
  EXPECT_EQ(with_obs.simulated_seconds, without_obs.simulated_seconds);
}

}  // namespace
}  // namespace tmerge
