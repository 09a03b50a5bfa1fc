#include "tmerge/merge/pipeline.h"

#include <set>
#include <utility>

#include "tmerge/core/sim_clock.h"
#include "tmerge/core/status.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/metrics/recall.h"
#include "tmerge/obs/span.h"
#include "tmerge/reid/feature_cache.h"

namespace tmerge::merge {

std::int64_t PreparedVideo::TotalPairs() const {
  std::int64_t total = 0;
  for (const auto& window : windows) {
    total += static_cast<std::int64_t>(window.pairs.size());
  }
  return total;
}

PreparedVideo PrepareVideo(const sim::SyntheticVideo& video,
                           track::Tracker& tracker,
                           const PipelineConfig& config) {
  TMERGE_SPAN("prepare.video.seconds");
  PreparedVideo prepared;
  prepared.video = &video;
  detect::DetectionSequence detections;
  {
    TMERGE_SPAN("prepare.detect.seconds");
    detections =
        detect::SimulateDetections(video, config.detector, config.seed);
  }
  {
    TMERGE_SPAN("prepare.track.seconds");
    prepared.tracking = tracker.Run(detections);
  }
  prepared.model = std::make_shared<reid::SyntheticReidModel>(
      video, config.reid, config.seed);
  {
    TMERGE_SPAN("prepare.window.seconds");
    prepared.windows = BuildWindows(prepared.tracking, config.window);
  }
  {
    TMERGE_SPAN("prepare.gt_match.seconds");
    prepared.assignment =
        metrics::MatchTracksToGt(video, prepared.tracking, config.gt_match);
    prepared.truth =
        metrics::PolyonymousPairs(prepared.tracking, prepared.assignment);
  }
  return prepared;
}

std::vector<PreparedVideo> PrepareDataset(const sim::Dataset& dataset,
                                          track::Tracker& tracker,
                                          const PipelineConfig& config) {
  TMERGE_SPAN("prepare.dataset.seconds");
  std::vector<PreparedVideo> prepared;
  int num_threads = core::ResolveNumThreads(config.num_threads);
  if (num_threads == 1 || dataset.videos.size() <= 1) {
    // Serial reference path.
    prepared.reserve(dataset.videos.size());
    for (std::size_t i = 0; i < dataset.videos.size(); ++i) {
      PipelineConfig per_video = config;
      per_video.seed = config.seed + 31 * (i + 1);
      prepared.push_back(PrepareVideo(dataset.videos[i], tracker, per_video));
    }
    return prepared;
  }

  // Each iteration writes only prepared[i]; the seed derivation matches the
  // serial loop exactly, so the result is bit-identical to it.
  prepared.resize(dataset.videos.size());
  core::ThreadPool pool(num_threads);
  pool.ParallelFor(0, static_cast<std::int64_t>(dataset.videos.size()),
                   [&](std::int64_t i) {
                     PipelineConfig per_video = config;
                     per_video.seed = config.seed + 31 * (i + 1);
                     prepared[i] =
                         PrepareVideo(dataset.videos[i], tracker, per_video);
                   });
  return prepared;
}

EvalResult EvaluateSelector(const PreparedVideo& prepared,
                            CandidateSelector& selector,
                            const SelectorOptions& options) {
  TMERGE_CHECK(prepared.video != nullptr);
  TMERGE_SPAN("evaluate.video.seconds");
  core::WallTimer elapsed_timer;
  EvalResult eval;
  eval.frames = prepared.video->num_frames;
  eval.truth_pairs = static_cast<std::int64_t>(prepared.truth.size());

  std::set<metrics::TrackPairKey> truth_set(prepared.truth.begin(),
                                            prepared.truth.end());
  std::set<metrics::TrackPairKey> selected;

  reid::FeatureCache cache;
  SelectorOptions window_options = options;
  for (const auto& window : prepared.windows) {
    if (window.pairs.empty()) continue;
    PairContext context(prepared.tracking, window.pairs);
    window_options.seed = WindowSeed(options.seed, window.window_index);
    core::WallTimer select_timer;
    SelectionResult result;
    {
      TMERGE_SPAN("evaluate.window.seconds");
      result = selector.Select(context, *prepared.model, cache,
                               window_options);
    }
    eval.summed_wall_seconds += select_timer.Seconds();
    const auto window_pairs = static_cast<std::int64_t>(window.pairs.size());
    PublishWindowObs(result, window_pairs);
    eval.AddWindow(result, window_pairs);
    for (const auto& pair : result.candidates) selected.insert(pair);
  }

  for (const auto& pair : selected) {
    if (truth_set.contains(pair)) ++eval.hits;
  }
  eval.candidates.assign(selected.begin(), selected.end());
  eval.rec = eval.truth_pairs > 0
                 ? static_cast<double>(eval.hits) / eval.truth_pairs
                 : 1.0;
  eval.fps = eval.simulated_seconds > 0.0
                 ? static_cast<double>(eval.frames) / eval.simulated_seconds
                 : 0.0;
  eval.elapsed_seconds = elapsed_timer.Seconds();
  return eval;
}

EvalResult EvaluateDataset(const std::vector<PreparedVideo>& videos,
                           CandidateSelector& selector,
                           const SelectorOptions& options, int num_threads) {
  TMERGE_SPAN("evaluate.dataset.seconds");
  core::WallTimer elapsed_timer;
  // Per-video evaluations are independent: each owns its FeatureCache and
  // meter (created inside EvaluateSelector) and reads only its own
  // PreparedVideo. The selector is shared across threads, which is safe
  // because Select reads but never mutates selector state (see pipeline.h).
  std::vector<EvalResult> evals(videos.size());
  num_threads = core::ResolveNumThreads(num_threads);
  if (num_threads == 1 || videos.size() <= 1) {
    for (std::size_t i = 0; i < videos.size(); ++i) {
      evals[i] = EvaluateSelector(videos[i], selector, options);
    }
  } else {
    core::ThreadPool pool(num_threads);
    pool.ParallelFor(0, static_cast<std::int64_t>(videos.size()),
                     [&](std::int64_t i) {
                       evals[i] = EvaluateSelector(videos[i], selector,
                                                   options);
                     });
  }

  // Ordered reduction in video order: the same floating-point accumulation
  // sequence as a serial loop, hence deterministic for any thread count.
  EvalResult total;
  for (EvalResult& eval : evals) {
    total.Add(eval);
    total.summed_wall_seconds += eval.summed_wall_seconds;
    total.frames += eval.frames;
    total.truth_pairs += eval.truth_pairs;
    total.hits += eval.hits;
    total.candidates.insert(
        total.candidates.end(),
        std::make_move_iterator(eval.candidates.begin()),
        std::make_move_iterator(eval.candidates.end()));
  }
  total.rec = total.truth_pairs > 0
                  ? static_cast<double>(total.hits) / total.truth_pairs
                  : 1.0;
  total.fps = total.simulated_seconds > 0.0
                  ? static_cast<double>(total.frames) / total.simulated_seconds
                  : 0.0;
  // True elapsed time of this call, not the per-video sum: with
  // num_threads > 1 the two diverge by design (see EvalResult).
  total.elapsed_seconds = elapsed_timer.Seconds();
  return total;
}

EvalResult EvaluateSelectorAveraged(const std::vector<PreparedVideo>& videos,
                                    CandidateSelector& selector,
                                    const SelectorOptions& options,
                                    int trials, int num_threads) {
  TMERGE_CHECK(trials > 0);
  EvalResult mean;
  for (int trial = 0; trial < trials; ++trial) {
    SelectorOptions trial_options = options;
    trial_options.seed = options.seed + 7919 * trial;
    EvalResult eval =
        EvaluateDataset(videos, selector, trial_options, num_threads);
    if (trial == 0) {
      mean = eval;
      continue;
    }
    mean.Add(eval);
    mean.rec += eval.rec;
    mean.fps += eval.fps;
    mean.summed_wall_seconds += eval.summed_wall_seconds;
    mean.elapsed_seconds += eval.elapsed_seconds;
    mean.hits += eval.hits;
  }
  mean.MeanOver(trials);
  mean.rec /= trials;
  mean.fps /= trials;
  mean.summed_wall_seconds /= trials;
  mean.elapsed_seconds /= trials;
  mean.hits = (mean.hits + trials / 2) / trials;
  return mean;
}

track::TrackingResult SelectAndMerge(const PreparedVideo& prepared,
                                     CandidateSelector& selector,
                                     const SelectorOptions& options,
                                     bool oracle_verified) {
  EvalResult eval = EvaluateSelector(prepared, selector, options);
  std::vector<metrics::TrackPairKey> accepted =
      oracle_verified ? OracleFilter(eval.candidates, prepared.truth)
                      : eval.candidates;
  return ApplyMerges(prepared.tracking, accepted);
}

}  // namespace tmerge::merge
