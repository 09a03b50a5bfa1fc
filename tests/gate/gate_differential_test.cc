// Differential tests for the gated selection path: a pass-through
// GatedSelector (GateConfig::enabled == false) must be bit-identical to
// the bare selector it wraps — for every selector, at the window level, at
// the dataset level across thread counts, and end to end through the
// streaming service. With the gate enabled, gated-streamed must equal
// gated-batch the same way the ungated tentpole equivalence holds
// (DESIGN.md §11, extended by §14).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testing/merge_fixture.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/stream/stream_service.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::gate {
namespace {

std::vector<std::pair<std::string, std::unique_ptr<merge::CandidateSelector>>>
AllSelectors() {
  std::vector<std::pair<std::string, std::unique_ptr<merge::CandidateSelector>>>
      out;
  out.emplace_back("BL", std::make_unique<merge::BaselineSelector>());
  out.emplace_back("PS", std::make_unique<merge::ProportionalSelector>(0.5));
  out.emplace_back("LCB", std::make_unique<merge::LcbSelector>(800));
  out.emplace_back("TMerge", std::make_unique<merge::TMergeSelector>());
  return out;
}

merge::SelectionResult RunOnce(merge::CandidateSelector& selector,
                               const testing::MergeScenario& scenario,
                               std::int32_t batch_size) {
  reid::FeatureCache cache;
  merge::SelectorOptions options;
  options.batch_size = batch_size;
  options.seed = 11;
  return selector.Select(scenario.context(), scenario.model(), cache,
                         options);
}

// Everything except wall-clock bookkeeping must match to the last bit.
void ExpectBitIdentical(const merge::SelectionResult& gated,
                        const merge::SelectionResult& bare,
                        const std::string& label) {
  EXPECT_EQ(gated.candidates, bare.candidates) << label;
  EXPECT_EQ(gated.box_pairs_evaluated, bare.box_pairs_evaluated) << label;
  EXPECT_EQ(gated.sum_sampled_distance, bare.sum_sampled_distance) << label;
  EXPECT_EQ(gated.simulated_seconds, bare.simulated_seconds) << label;
  EXPECT_EQ(gated.ulb_pruned_in, bare.ulb_pruned_in) << label;
  EXPECT_EQ(gated.ulb_pruned_out, bare.ulb_pruned_out) << label;
  EXPECT_EQ(gated.failed_pulls, bare.failed_pulls) << label;
  EXPECT_EQ(gated.usage.single_inferences, bare.usage.single_inferences)
      << label;
  EXPECT_EQ(gated.usage.batched_crops, bare.usage.batched_crops) << label;
  EXPECT_EQ(gated.usage.batch_calls, bare.usage.batch_calls) << label;
  EXPECT_EQ(gated.usage.distance_evals, bare.usage.distance_evals) << label;
  EXPECT_EQ(gated.usage.cache_hits, bare.usage.cache_hits) << label;
  EXPECT_EQ(gated.usage.failed_embeds, bare.usage.failed_embeds) << label;
  EXPECT_EQ(gated.usage.gate_accepted, bare.usage.gate_accepted) << label;
  EXPECT_EQ(gated.usage.gate_rejected, bare.usage.gate_rejected) << label;
  EXPECT_EQ(gated.usage.gate_ambiguous, bare.usage.gate_ambiguous) << label;
}

TEST(GateDifferentialTest, PassThroughBitIdenticalAllSelectorsOneWindow) {
  testing::MergeScenario scenario;
  for (auto& [name, selector] : AllSelectors()) {
    GatedSelector gated(*selector, GateConfig{});  // enabled == false.
    EXPECT_EQ(gated.name(), "Gated(" + selector->name() + ")");
    for (std::int32_t batch_size : {1, 4}) {
      merge::SelectionResult wrapped = RunOnce(gated, scenario, batch_size);
      merge::SelectionResult bare = RunOnce(*selector, scenario, batch_size);
      ExpectBitIdentical(wrapped, bare,
                         name + " B=" + std::to_string(batch_size));
      // The runs did real work, so the comparison is not vacuous, and a
      // pass-through gate classifies nothing.
      EXPECT_GT(bare.box_pairs_evaluated, 0) << name;
      EXPECT_EQ(wrapped.usage.gate_accepted, 0) << name;
      EXPECT_EQ(wrapped.usage.gate_rejected, 0) << name;
      EXPECT_EQ(wrapped.usage.gate_ambiguous, 0) << name;
    }
  }
}

void ExpectEvalBitIdentical(const merge::EvalResult& gated,
                            const merge::EvalResult& bare,
                            const std::string& label) {
  EXPECT_EQ(gated.rec, bare.rec) << label;
  EXPECT_EQ(gated.fps, bare.fps) << label;
  EXPECT_EQ(gated.truth_pairs, bare.truth_pairs) << label;
  EXPECT_EQ(gated.hits, bare.hits) << label;
  EXPECT_EQ(gated.candidates, bare.candidates) << label;
  EXPECT_TRUE(gated.SameWork(bare)) << label;
}

// Dataset-level: every selector, pass-through gate, 1 and 8 worker
// threads — all bit-identical to the bare single-threaded reference.
TEST(GateDifferentialTest, PassThroughBitIdenticalDatasetAcrossThreads) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kMot17Like, 2, /*seed=*/13);
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.single_window = true;
  std::vector<merge::PreparedVideo> prepared =
      merge::PrepareDataset(dataset, tracker, config);

  merge::SelectorOptions options;
  options.seed = 3;
  for (auto& [name, selector] : AllSelectors()) {
    merge::EvalResult reference =
        merge::EvaluateDataset(prepared, *selector, options, 1);
    GatedSelector gated(*selector, GateConfig{});
    for (int threads : {1, 8}) {
      merge::EvalResult eval =
          merge::EvaluateDataset(prepared, gated, options, threads);
      ExpectEvalBitIdentical(eval, reference,
                             name + " threads=" + std::to_string(threads));
    }
  }
}

// ---- Streaming side -----------------------------------------------------

struct BatchReference {
  sim::Dataset dataset;
  std::vector<merge::PreparedVideo> prepared;
  std::vector<merge::EvalResult> per_video;
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

/// Batch ground truth. `scheduler` (optional) mirrors the streaming
/// service's embed scheduler for gated runs: EmbedAll's output depends
/// only on the group's content, so either side may own its instance.
BatchReference RunBatch(int num_videos, merge::CandidateSelector& selector,
                        reid::EmbedScheduler* scheduler = nullptr) {
  BatchReference ref;
  ref.dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, num_videos, 7);
  track::SortTracker tracker;
  merge::PipelineConfig config = ReferencePipelineConfig();
  ref.prepared = merge::PrepareDataset(ref.dataset, tracker, config);
  merge::SelectorOptions options = ReferenceSelectorOptions();
  options.embed_scheduler = scheduler;
  for (const merge::PreparedVideo& video : ref.prepared) {
    ref.per_video.push_back(merge::EvaluateSelector(video, selector, options));
  }
  return ref;
}

stream::StreamResult RunStream(const BatchReference& ref,
                               merge::CandidateSelector& selector,
                               int num_threads, bool enable_scheduler) {
  merge::PipelineConfig config = ReferencePipelineConfig();
  stream::StreamServiceConfig service_config;
  service_config.window = config.window;
  service_config.selector = ReferenceSelectorOptions();
  service_config.num_threads = num_threads;
  service_config.enable_embed_scheduler = enable_scheduler;
  stream::StreamService service(service_config, selector);

  std::vector<detect::DetectionSequence> detections;
  std::int32_t max_frames = 0;
  for (std::size_t i = 0; i < ref.dataset.videos.size(); ++i) {
    std::uint64_t seed = config.seed + 31 * (i + 1);
    const sim::SyntheticVideo& video = ref.dataset.videos[i];
    detections.push_back(
        detect::SimulateDetections(video, config.detector, seed));
    stream::CameraConfig camera;
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
      for (;;) {
        stream::IngestOutcome outcome = service.IngestFrame(
            static_cast<std::int32_t>(cam), detections[cam].frames[f], now);
        if (outcome != stream::IngestOutcome::kBackpressure) break;
        now += 0.5;
      }
    }
  }
  for (std::size_t cam = 0; cam < detections.size(); ++cam) {
    service.CloseCamera(static_cast<std::int32_t>(cam), now);
  }
  return service.Finish(now + 1.0);
}

void ExpectStreamMatchesBatch(const stream::StreamResult& stream,
                              const BatchReference& ref,
                              const std::string& label) {
  ASSERT_EQ(stream.cameras.size(), ref.per_video.size()) << label;
  for (std::size_t i = 0; i < ref.per_video.size(); ++i) {
    SCOPED_TRACE(label + " camera " + std::to_string(i));
    const stream::CameraStreamResult& camera = stream.cameras[i];
    const merge::EvalResult& batch = ref.per_video[i];
    EXPECT_EQ(camera.candidates, batch.candidates);
    EXPECT_TRUE(camera.SameWork(batch));
  }
}

// Every selector, pass-through gate, streamed at 1 and 8 merge workers:
// per-camera output bit-identical to the bare batch pipeline.
TEST(GateDifferentialTest, PassThroughStreamingMatchesBareBatch) {
  for (auto& [name, selector] : AllSelectors()) {
    BatchReference ref = RunBatch(/*num_videos=*/2, *selector);
    GatedSelector gated(*selector, GateConfig{});
    for (int threads : {1, 8}) {
      stream::StreamResult streamed =
          RunStream(ref, gated, threads, /*enable_scheduler=*/false);
      ExpectStreamMatchesBatch(streamed, ref,
                               name + " threads=" + std::to_string(threads));
    }
  }
}

// Gate ON end to end: the streaming service (with its own EmbedScheduler)
// must reproduce the gated batch pipeline bit for bit — the §14 extension
// of the tentpole equivalence guarantee.
TEST(GateDifferentialTest, GatedStreamingMatchesGatedBatch) {
  GateConfig gate_config;
  gate_config.enabled = true;
  gate_config.prefetch_ambiguous = true;
  merge::TMergeSelector inner;
  GatedSelector gated(inner, gate_config);

  reid::EmbedScheduler batch_scheduler{reid::EmbedSchedulerConfig{}, nullptr};
  BatchReference ref = RunBatch(/*num_videos=*/2, gated, &batch_scheduler);
  // The gate actually classified, so the equivalence below is not the
  // pass-through case in disguise.
  std::int64_t classified = 0;
  for (const merge::EvalResult& eval : ref.per_video) {
    classified += eval.usage.gate_accepted + eval.usage.gate_rejected +
                  eval.usage.gate_ambiguous;
  }
  ASSERT_GT(classified, 0);

  for (int threads : {1, 4}) {
    stream::StreamResult streamed =
        RunStream(ref, gated, threads, /*enable_scheduler=*/true);
    ExpectStreamMatchesBatch(streamed, ref,
                             "gated threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace tmerge::gate
