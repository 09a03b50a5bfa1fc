// Property tests of the gate's decision soundness and accounting:
//   1. Soundness — evidence that clears the accept thresholds classifies
//      as kAccept for EVERY config (never reject), so a ground-truth-same
//      pair with above-accept-threshold evidence cannot be dropped.
//   2. Partition — accepted + rejected + ambiguous equals the pair count,
//      window by window, cross-checked three ways: UsageStats from the
//      gated selector, direct re-classification of every window, and the
//      obs counter registry the pipeline records into.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "tmerge/gate/gated_selector.h"
#include "tmerge/gate/pair_gate.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/selector.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/metrics/gt_matcher.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::gate {
namespace {

std::vector<merge::PreparedVideo> PrepareVideos(sim::Dataset& dataset) {
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.length = 200;
  return merge::PrepareDataset(dataset, tracker, config);
}

/// Configs spanning the threshold space, strict through permissive. Every
/// one must uphold the soundness property.
std::vector<GateConfig> SweepConfigs() {
  std::vector<GateConfig> configs;
  configs.push_back(GateConfig{});  // Shipped defaults.
  for (double accept_iou : {0.1, 0.45}) {
    for (std::int32_t accept_gap : {30, 150}) {
      for (std::int32_t reject_gap : {60, 240}) {
        GateConfig config;
        config.enabled = true;
        config.accept_min_iou = accept_iou;
        config.accept_max_gap_frames = accept_gap;
        config.reject_min_gap_frames = reject_gap;
        config.max_speed_pixels_per_frame = accept_iou < 0.3 ? 6.0 : 24.0;
        config.reject_max_iou = 0.08;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

bool ClearsAcceptThresholds(const GateEvidence& evidence,
                            const GateConfig& config) {
  return evidence.extrapolated_iou >= config.accept_min_iou &&
         evidence.gap_frames <= config.accept_max_gap_frames;
}

TEST(GatePropertyTest, AcceptableEvidenceIsNeverRejected) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kMot17Like, 2, /*seed=*/101);
  std::vector<merge::PreparedVideo> prepared = PrepareVideos(dataset);

  std::int64_t acceptable_gt_same_defaults = 0;
  for (const GateConfig& config : SweepConfigs()) {
    const bool is_default_config = !config.enabled;
    for (const merge::PreparedVideo& video : prepared) {
      std::set<metrics::TrackPairKey> truth(video.truth.begin(),
                                            video.truth.end());
      for (const auto& window : video.windows) {
        merge::PairContext context(video.tracking, window.pairs);
        for (std::size_t p = 0; p < context.num_pairs(); ++p) {
          GateEvidence evidence = ComputeEvidence(context, p);
          if (!ClearsAcceptThresholds(evidence, config)) continue;
          // The soundness property: accept-threshold evidence classifies
          // as accept under every config — in particular it can never be
          // rejected, whatever the reject thresholds say.
          EXPECT_EQ(Classify(evidence, config), GateVerdict::kAccept)
              << "iou=" << evidence.extrapolated_iou
              << " gap=" << evidence.gap_frames
              << " speed=" << evidence.required_speed;
          if (is_default_config && truth.contains(context.pair(p))) {
            ++acceptable_gt_same_defaults;
          }
        }
      }
    }
  }
  // Non-vacuity: the shipped defaults accept real ground-truth-same pairs
  // on this profile (the gate frontier's accepted column).
  EXPECT_GT(acceptable_gt_same_defaults, 0);
}

TEST(GatePropertyTest, VerdictCountsPartitionEveryWindow) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kMot17Like, 2, /*seed=*/57);
  std::vector<merge::PreparedVideo> prepared = PrepareVideos(dataset);

  GateConfig config;
  config.enabled = true;
  merge::TMergeSelector inner;
  GatedSelector gated(inner, config);
  merge::SelectorOptions options;
  options.seed = 19;

  for (const merge::PreparedVideo& video : prepared) {
    merge::EvalResult eval = merge::EvaluateSelector(video, gated, options);

    // Partition: the three verdicts cover the video's pairs exactly.
    EXPECT_EQ(eval.usage.gate_accepted + eval.usage.gate_rejected +
                  eval.usage.gate_ambiguous,
              eval.pairs);

    // Cross-check against direct classification of every window: the
    // selector recorded exactly what the gate decides, nothing more.
    GateCounts manual;
    for (const auto& window : video.windows) {
      merge::PairContext context(video.tracking, window.pairs);
      for (std::size_t p = 0; p < context.num_pairs(); ++p) {
        switch (ClassifyPair(context, p, config)) {
          case GateVerdict::kAccept: ++manual.accepted; break;
          case GateVerdict::kReject: ++manual.rejected; break;
          case GateVerdict::kAmbiguous: ++manual.ambiguous; break;
        }
      }
    }
    EXPECT_EQ(manual.accepted, eval.usage.gate_accepted);
    EXPECT_EQ(manual.rejected, eval.usage.gate_rejected);
    EXPECT_EQ(manual.ambiguous, eval.usage.gate_ambiguous);
    EXPECT_EQ(manual.total(), eval.pairs);
  }
}

TEST(GatePropertyTest, ObsCountersAgreeWithUsageStats) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kMot17Like, 2, /*seed=*/77);
  std::vector<merge::PreparedVideo> prepared = PrepareVideos(dataset);

  GateConfig config;
  config.enabled = true;
  merge::TMergeSelector inner;
  GatedSelector gated(inner, config);
  merge::SelectorOptions options;
  options.seed = 23;

  obs::SetEnabled(true);
  obs::DefaultRegistry().Reset();
  merge::EvalResult eval =
      merge::EvaluateDataset(prepared, gated, options, /*num_threads=*/2);
  obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
  obs::SetEnabled(false);

  // The pipeline's per-window counters and the aggregated UsageStats are
  // two independent accumulations of the same verdict stream.
  EXPECT_EQ(snapshot.counters.at("gate.accepted"), eval.usage.gate_accepted);
  EXPECT_EQ(snapshot.counters.at("gate.rejected"), eval.usage.gate_rejected);
  EXPECT_EQ(snapshot.counters.at("gate.ambiguous"),
            eval.usage.gate_ambiguous);
  EXPECT_EQ(eval.usage.gate_accepted + eval.usage.gate_rejected +
                eval.usage.gate_ambiguous,
            eval.pairs);
  // The gate did real work on this profile.
  EXPECT_GT(eval.usage.gate_rejected, 0);
  EXPECT_GT(eval.usage.gate_ambiguous, 0);
}

TEST(GatePropertyTest, UngatedRunsRecordZeroVerdicts) {
  sim::Dataset dataset =
      sim::MakeDataset(sim::DatasetProfile::kKittiLike, 1, /*seed=*/5);
  std::vector<merge::PreparedVideo> prepared = PrepareVideos(dataset);
  merge::TMergeSelector selector;
  merge::SelectorOptions options;
  merge::EvalResult eval =
      merge::EvaluateSelector(prepared[0], selector, options);
  EXPECT_EQ(eval.usage.gate_accepted, 0);
  EXPECT_EQ(eval.usage.gate_rejected, 0);
  EXPECT_EQ(eval.usage.gate_ambiguous, 0);
}

TEST(GatePropertyTest, UnitBudgetScaleIsExactIdentity) {
  // The pass-through contract leans on ScaledBudget(tau, 1.0) == tau bit
  // for bit — no float round-trip may perturb the inner budget.
  for (std::int64_t tau : {1LL, 7LL, 200LL, 4000LL, 10000LL, 1234567LL}) {
    EXPECT_EQ(merge::internal::ScaledBudget(tau, 1.0), tau);
  }
  // And the floor: a tiny ambiguous fraction still buys one pull.
  EXPECT_EQ(merge::internal::ScaledBudget(1000, 0.0001), 1);
  EXPECT_EQ(merge::internal::ScaledBudget(1000, 0.05), 50);
}

}  // namespace
}  // namespace tmerge::gate
