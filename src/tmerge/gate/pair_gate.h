#ifndef TMERGE_GATE_PAIR_GATE_H_
#define TMERGE_GATE_PAIR_GATE_H_

#include <cstdint>
#include <cstddef>

#include "tmerge/merge/pair_store.h"

namespace tmerge::gate {

/// Verdict of the cheap-evidence gate on one candidate pair.
enum class GateVerdict : std::uint8_t {
  /// Evidence that the two tracks are the same object is strong enough to
  /// emit the pair as a candidate without spending any ReID budget.
  kAccept = 0,
  /// Evidence rules the pair out; it is dropped before selection.
  kReject = 1,
  /// Neither rule fired; the pair proceeds to the (ReID-charged) selector.
  kAmbiguous = 2,
};

/// Thresholds of the pair gate. The decision order is fixed: accept rules
/// are evaluated BEFORE reject rules, so a pair whose evidence clears the
/// accept thresholds can never be rejected — the soundness property the
/// gate property tests pin (tests/gate/gate_property_test.cc).
///
/// Defaults are calibrated against the synthetic profiles (the
/// `bench_gate_frontier --calibrate` evidence split): ground-truth-same
/// pairs extrapolate to IoU >= ~0.48 with temporal gaps under ~30 frames
/// and required speeds under ~5 px/frame, while different-object pairs
/// extrapolate to IoU ~0 with median gaps in the hundreds of frames. The
/// motion model bounds per-axis speed at 8 px/frame (sim/motion.h), so
/// the 12 px/frame speed gate still clears the fastest physically
/// possible fragment reconnection, and the 120-frame gap bound leaves a
/// 4x margin over the occlusion gaps that actually fragment tracks.
struct GateConfig {
  /// Master switch. Disabled (the default) means pass-through: every pair
  /// is forwarded to the inner selector untouched and the gate charges
  /// nothing — bit-identical to the ungated pipeline by construction.
  bool enabled = false;

  /// Accept when the earlier track's last box, extrapolated across the
  /// temporal gap at its estimated velocity, overlaps the later track's
  /// first box with IoU >= accept_min_iou ...
  double accept_min_iou = 0.30;
  /// ... and the temporal gap does not exceed this (extrapolation loses
  /// predictive power with distance; a large-gap overlap is coincidence).
  std::int32_t accept_max_gap_frames = 60;

  /// Reject when the temporal gap alone exceeds this bound (no plausible
  /// occlusion lasts this long in the profiles).
  std::int32_t reject_min_gap_frames = 120;
  /// Reject when covering the spatial gap would require a speed above this
  /// bound (px/frame) AND the extrapolation shows no overlap at all
  /// (extrapolated IoU <= reject_max_iou). Both must hold: speed evidence
  /// alone is noisy for short gaps.
  double max_speed_pixels_per_frame = 12.0;
  double reject_max_iou = 0.05;

  /// When true and SelectorOptions::embed_scheduler is set, the gated
  /// selector pushes every crop of the ambiguous pairs through the
  /// EmbedScheduler before running the inner selector, converting the
  /// inner selector's single-inference misses into CostModel-optimal
  /// batches (amortizing batch_fixed_seconds).
  bool prefetch_ambiguous = false;
};

/// Cheap per-pair evidence the gate decides on. Pure geometry over the
/// PairContext's tracks; no ReID features and no thresholds are touched.
struct GateEvidence {
  /// IoU between the earlier track's last box extrapolated to the later
  /// track's first frame and the later track's first box.
  double extrapolated_iou = 0.0;
  /// Speed (px/frame) required to cover the spatial gap within the
  /// temporal gap.
  double required_speed = 0.0;
  /// Temporal gap in frames (>= 0, as PairContext::TemporalGap).
  std::int32_t gap_frames = 0;
  /// Center distance between the earlier track's last box and the later
  /// track's first box.
  double spatial_distance = 0.0;
};

/// Per-window verdict counters; accepted + rejected + ambiguous always
/// equals the number of classified pairs.
struct GateCounts {
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t ambiguous = 0;

  std::int64_t total() const { return accepted + rejected + ambiguous; }
};

/// Computes the gate evidence for pair `index` of `context`. The earlier
/// track's velocity is the endpoint slope over its last up-to-8 centers.
GateEvidence ComputeEvidence(const merge::PairContext& context,
                             std::size_t index);

/// Classifies one evidence record. Accept rules run before reject rules
/// (see GateConfig).
GateVerdict Classify(const GateEvidence& evidence, const GateConfig& config);

/// Convenience: evidence + classification in one call.
GateVerdict ClassifyPair(const merge::PairContext& context, std::size_t index,
                         const GateConfig& config);

}  // namespace tmerge::gate

#endif  // TMERGE_GATE_PAIR_GATE_H_
