#ifndef TMERGE_MERGE_PIPELINE_H_
#define TMERGE_MERGE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/merger.h"
#include "tmerge/merge/selector.h"
#include "tmerge/merge/window.h"
#include "tmerge/metrics/gt_matcher.h"
#include "tmerge/reid/reid_model.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/track.h"

namespace tmerge::merge {

/// Configuration of the ingestion pipeline up to (but excluding) candidate
/// selection: detection, tracking input preparation, windowing, ReID model,
/// and the GT oracle.
struct PipelineConfig {
  detect::DetectorConfig detector;
  WindowConfig window;
  reid::ReidModelConfig reid;
  metrics::GtMatchConfig gt_match;
  std::uint64_t seed = 42;
  /// Worker threads for dataset-level preparation and evaluation:
  /// 0 = hardware_concurrency, 1 = the serial reference path (default).
  /// Videos are the unit of parallelism — per-video seeds and all
  /// per-video results are bit-identical for every value of this knob;
  /// see DESIGN.md "Threading model".
  int num_threads = 1;
};

/// Everything selectors and benches need about one video, computed once and
/// reused across selector sweeps: the tracking result, ReID model, windowed
/// pair sets, and the ground-truth polyonymous pairs. Holds a pointer to
/// the source video, which must outlive it.
struct PreparedVideo {
  const sim::SyntheticVideo* video = nullptr;
  track::TrackingResult tracking;
  std::shared_ptr<const reid::ReidModel> model;
  std::vector<WindowPairs> windows;
  metrics::TrackGtAssignment assignment;
  /// All true polyonymous pairs of the video (paper Eq. 2, over tracker
  /// output vs GT). The REC denominator.
  std::vector<metrics::TrackPairKey> truth;

  /// Total pairs across all windows.
  std::int64_t TotalPairs() const;
};

/// Runs detection + the given tracker + windowing + GT matching on a video.
PreparedVideo PrepareVideo(const sim::SyntheticVideo& video,
                           track::Tracker& tracker,
                           const PipelineConfig& config);

/// Prepares every video of a dataset (seed varied per video), using
/// `config.num_threads` workers when it is not 1. Per-video seeds are
/// derived by index before any work is scheduled, so the prepared videos
/// are bit-identical to the serial path for every thread count.
///
/// Concurrency contract: `tracker.Run` is invoked from multiple threads on
/// the same tracker object, so it must not mutate tracker state — every
/// tracker shipped in tmerge::track keeps all per-run state local to Run
/// (they hold only immutable config, plus a const ReidModel* for the
/// appearance tracker).
std::vector<PreparedVideo> PrepareDataset(const sim::Dataset& dataset,
                                          track::Tracker& tracker,
                                          const PipelineConfig& config);

/// Aggregated outcome of running one selector over prepared videos. The
/// work counters come from the WorkTally base.
struct EvalResult : WorkTally {
  /// Micro-averaged recall: candidate hits / all true polyonymous pairs
  /// (so pairs unreachable under the windowing — e.g. when L < 2 L_max —
  /// count as misses, as in the paper's Fig. 9).
  double rec = 0.0;
  /// Frames processed per simulated second (the paper's FPS metric).
  /// Always computed from `simulated_seconds`; the wall-clock fields below
  /// are bookkeeping diagnostics and never feed FPS.
  double fps = 0.0;
  /// Wall-clock of the Select calls, summed over windows and videos. With
  /// num_threads > 1 the per-video terms overlap in real time, so this is
  /// aggregate CPU-time-like work, NOT elapsed time (it can exceed
  /// `elapsed_seconds` by up to the thread count).
  double summed_wall_seconds = 0.0;
  /// True elapsed wall-clock of the call that produced this result: the
  /// whole parallel loop for EvaluateDataset, one video's evaluation for
  /// EvaluateSelector (also recorded as the "evaluate.dataset.seconds" /
  /// "evaluate.video.seconds" obs spans).
  double elapsed_seconds = 0.0;
  std::int64_t frames = 0;
  std::int64_t truth_pairs = 0;
  std::int64_t hits = 0;
  /// Union of selected candidates across windows (for merging).
  std::vector<metrics::TrackPairKey> candidates;
};

/// Runs `selector` over every window of one prepared video. A fresh feature
/// cache is used per video and shared across its windows (cross-window
/// reuse mirrors the paper's feature-reuse optimization).
EvalResult EvaluateSelector(const PreparedVideo& prepared,
                            CandidateSelector& selector,
                            const SelectorOptions& options);

/// Runs `selector` over several prepared videos with `num_threads` workers
/// (0 = hardware_concurrency, 1 = serial reference path) and aggregates.
///
/// Parallelism is per video: each video's evaluation owns a fresh
/// FeatureCache and InferenceMeter, reads only its own PreparedVideo
/// (tracking, windows, per-video ReidModel), and shares with other videos
/// nothing but the selector and options. That boundary demands:
///   - CandidateSelector::Select must not mutate selector members (every
///     shipped selector only reads its options struct);
///   - ReidModel::Embed must be safely callable concurrently (both shipped
///     models are pure const lookups + local RNG).
/// Aggregation is an ordered reduction over the per-video results in video
/// order — the identical floating-point accumulation as the serial loop —
/// so rec/hits/candidates/usage are bit-identical for every thread count.
EvalResult EvaluateDataset(const std::vector<PreparedVideo>& videos,
                           CandidateSelector& selector,
                           const SelectorOptions& options,
                           int num_threads = 1);

/// Runs EvaluateDataset `trials` times with derived seeds and averages
/// REC/FPS/time/counter fields (the paper reports the average of 10
/// independent trials per experiment; benches here default to 3).
/// Integer counters and `hits` are rounded means (WorkTally::MeanOver);
/// frames, truth_pairs and `candidates` come from the first trial.
EvalResult EvaluateSelectorAveraged(const std::vector<PreparedVideo>& videos,
                                    CandidateSelector& selector,
                                    const SelectorOptions& options,
                                    int trials, int num_threads = 1);

/// Convenience: selects candidates with `selector`, confirms them against
/// the oracle, and returns the merged tracking result for `prepared`.
track::TrackingResult SelectAndMerge(const PreparedVideo& prepared,
                                     CandidateSelector& selector,
                                     const SelectorOptions& options,
                                     bool oracle_verified = true);

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_PIPELINE_H_
