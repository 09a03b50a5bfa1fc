// Unit tests of the pair gate's evidence extraction and decision rules:
// linear-motion extrapolation recovers the true gap-crossing geometry,
// accept rules take precedence over reject rules (the soundness ordering
// of GateConfig), and each verdict region of the evidence space maps to
// the documented decision.

#include "tmerge/gate/pair_gate.h"

#include <gtest/gtest.h>

#include <vector>

#include "testing/test_util.h"
#include "tmerge/merge/pair_store.h"
#include "tmerge/metrics/gt_matcher.h"

namespace tmerge::gate {
namespace {

/// Two fragments of one object moving right at 2 px/frame: frames 0..79
/// and 120..199, the second resuming exactly where extrapolation predicts.
class FragmentPairTest : public ::testing::Test {
 protected:
  FragmentPairTest() {
    std::vector<track::Track> tracks;
    tracks.push_back(testing::MakeTrack(1, 0, 80, 0, 100.0, 100.0));
    tracks.push_back(
        testing::MakeTrack(2, 120, 80, 0, 100.0 + 2.0 * 120, 100.0));
    result_ = testing::MakeResult(std::move(tracks), /*num_frames=*/220);
    context_ = std::make_unique<merge::PairContext>(
        result_, std::vector<metrics::TrackPairKey>{{1, 2}});
  }

  track::TrackingResult result_;
  std::unique_ptr<merge::PairContext> context_;
};

TEST_F(FragmentPairTest, EvidenceExtrapolatesLinearMotion) {
  GateEvidence evidence = ComputeEvidence(*context_, 0);

  // Track 1 ends at frame 79 (x = 258), track 2 starts at frame 120
  // (x = 340): a 41-frame gap covered at exactly the track's 2 px/frame.
  EXPECT_EQ(evidence.gap_frames, 41);
  EXPECT_NEAR(evidence.spatial_distance, 82.0, 1e-9);
  EXPECT_NEAR(evidence.required_speed, 2.0, 1e-9);
  // Constant velocity means the extrapolated box lands on the real one.
  EXPECT_GT(evidence.extrapolated_iou, 0.95);
}

TEST_F(FragmentPairTest, PerfectExtrapolationAcceptsUnderDefaults) {
  GateConfig config;
  EXPECT_EQ(ClassifyPair(*context_, 0, config), GateVerdict::kAccept);
}

TEST_F(FragmentPairTest, ClassifyPairMatchesComposition) {
  GateConfig config;
  config.accept_min_iou = 0.9;
  config.accept_max_gap_frames = 30;
  GateEvidence evidence = ComputeEvidence(*context_, 0);
  EXPECT_EQ(ClassifyPair(*context_, 0, config), Classify(evidence, config));
}

TEST(PairGateTest, DisabledByDefault) {
  EXPECT_FALSE(GateConfig{}.enabled);
}

TEST(PairGateTest, AcceptRulesRunBeforeRejectRules) {
  // Evidence that satisfies BOTH the accept rules and a (misconfigured)
  // reject rule must accept: the decision order is part of the contract.
  GateConfig config;
  config.accept_min_iou = 0.30;
  config.accept_max_gap_frames = 60;
  config.reject_min_gap_frames = 10;  // Every gap below also "rejects".

  GateEvidence evidence;
  evidence.extrapolated_iou = 0.9;
  evidence.gap_frames = 30;
  evidence.required_speed = 1.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kAccept);
}

TEST(PairGateTest, LongGapRejects) {
  GateConfig config;  // Defaults: reject_min_gap_frames = 120.
  GateEvidence evidence;
  evidence.extrapolated_iou = 0.0;
  evidence.gap_frames = 500;
  evidence.required_speed = 1.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kReject);
}

TEST(PairGateTest, ImplausibleSpeedWithoutOverlapRejects) {
  GateConfig config;  // Defaults: 12 px/frame cap, reject_max_iou = 0.05.
  GateEvidence evidence;
  evidence.extrapolated_iou = 0.0;
  evidence.gap_frames = 50;  // Below the gap-reject bound on purpose.
  evidence.required_speed = 50.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kReject);
}

TEST(PairGateTest, ImplausibleSpeedWithOverlapStaysAmbiguous) {
  // The speed rule requires BOTH high speed and no extrapolated overlap;
  // residual overlap keeps the pair in play for the selector.
  GateConfig config;
  GateEvidence evidence;
  evidence.extrapolated_iou = 0.2;  // > reject_max_iou, < accept_min_iou.
  evidence.gap_frames = 50;
  evidence.required_speed = 50.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kAmbiguous);
}

TEST(PairGateTest, MidEvidenceIsAmbiguous) {
  GateConfig config;
  GateEvidence evidence;
  evidence.extrapolated_iou = 0.1;
  evidence.gap_frames = 80;
  evidence.required_speed = 3.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kAmbiguous);
}

TEST(PairGateTest, GoodOverlapBeyondAcceptGapIsAmbiguousNotAccepted) {
  // Overlap alone is not enough: past accept_max_gap_frames extrapolation
  // is coincidence, and with the gap below reject_min_gap_frames neither
  // reject rule fires either.
  GateConfig config;
  GateEvidence evidence;
  evidence.extrapolated_iou = 0.9;
  evidence.gap_frames = 100;  // In (accept_max 60, reject_min 120).
  evidence.required_speed = 1.0;
  EXPECT_EQ(Classify(evidence, config), GateVerdict::kAmbiguous);
}

TEST(PairGateTest, CountsTotalPartitions) {
  GateCounts counts;
  counts.accepted = 3;
  counts.rejected = 5;
  counts.ambiguous = 7;
  EXPECT_EQ(counts.total(), 15);
}

}  // namespace
}  // namespace tmerge::gate
