#ifndef TMERGE_REID_COST_MODEL_H_
#define TMERGE_REID_COST_MODEL_H_

#include <cstdint>

#include "tmerge/core/sim_clock.h"

namespace tmerge::reid {

/// Deterministic time costs of the simulated inference hardware. The paper's
/// FPS numbers are dominated by ReID model invocations on a GPU; here each
/// operation charges a fixed duration to a SimClock so benches reproduce the
/// paper's *relative* performance (who wins, by what factor) independent of
/// the host machine. Defaults are loosely calibrated to the paper's setup
/// (§I: the brute-force approach takes >3 minutes on an ~825-frame MOT-17
/// feed with ~8.7M BBox-pair distances and ~12k feature extractions).
struct CostModel {
  /// One ReID forward pass for a single crop (no batching).
  double single_inference_seconds = 5e-3;
  /// Fixed overhead of launching one batched inference (kernel launch,
  /// transfer setup).
  double batch_fixed_seconds = 1e-3;
  /// Marginal per-crop cost inside a batch (GPU amortization).
  double batch_item_seconds = 2.5e-4;
  /// One feature-vector distance evaluation on the host path.
  double distance_seconds = 1e-5;
  /// Per-distance cost when evaluated inside a GPU batch (the "-B"
  /// algorithm variants); far cheaper thanks to amortization.
  double batched_distance_seconds = 2e-7;
  /// Bookkeeping overhead charged per algorithm iteration per live pair
  /// (Thompson draws, bound updates). Tiny but nonzero so iteration-heavy
  /// methods do not come out free.
  double per_sample_overhead_seconds = 4e-8;
  /// One pair-gate evidence evaluation (IoU extrapolation + velocity
  /// bounds, tmerge::gate) — host arithmetic over a handful of boxes, so
  /// orders of magnitude below an inference but nonzero so gating is never
  /// modeled as free.
  double gate_check_seconds = 1e-7;
};

/// Operation counters accumulated by a selector run.
struct UsageStats {
  std::int64_t single_inferences = 0;
  std::int64_t batched_crops = 0;
  std::int64_t batch_calls = 0;
  std::int64_t distance_evals = 0;
  std::int64_t cache_hits = 0;
  /// Embed attempts that errored (injected or real). Each one was charged
  /// inference time but produced no feature — the "failed pulls charged to
  /// the cost model" of the degraded mode (DESIGN.md "Fault model").
  std::int64_t failed_embeds = 0;
  /// Pair-gate verdicts (tmerge::gate). Zero on every ungated run; when a
  /// GatedSelector classified the window, the three always sum to the
  /// window's pair count (pinned by tests/gate/gate_property_test.cc).
  std::int64_t gate_accepted = 0;
  std::int64_t gate_rejected = 0;
  std::int64_t gate_ambiguous = 0;

  /// Total crops embedded (single + batched), excluding cache hits and
  /// failed attempts.
  std::int64_t TotalInferences() const {
    return single_inferences + batched_crops;
  }

  UsageStats& operator+=(const UsageStats& other);
  bool operator==(const UsageStats& other) const = default;
};

/// Charges operations against a CostModel and accumulates both simulated
/// time and counters. One meter per selector run.
class InferenceMeter {
 public:
  explicit InferenceMeter(const CostModel& model) : model_(model) {}

  /// Charges `count` unbatched ReID forward passes.
  void ChargeSingle(std::int64_t count = 1);

  /// Charges one batched inference over `batch_size` crops. A zero-sized
  /// batch charges nothing.
  void ChargeBatch(std::int64_t batch_size);

  /// Charges `count` distance evaluations on the host path.
  void ChargeDistance(std::int64_t count = 1);

  /// Charges `count` distance evaluations on the batched (GPU) path.
  void ChargeDistanceBatched(std::int64_t count);

  /// Charges algorithm bookkeeping for `count` per-pair operations.
  void ChargeOverhead(std::int64_t count);

  /// Records `count` feature-cache hits (free, but reported).
  void RecordCacheHit(std::int64_t count = 1);

  /// Charges one *failed* unbatched forward pass: full inference time is
  /// spent (the model ran and errored/timed out) but no feature exists, so
  /// only failed_embeds — never single_inferences — advances.
  void ChargeFailedSingle(std::int64_t count = 1);

  /// Charges `count` failed crops inside a batched inference (the per-item
  /// marginal cost; the batch's fixed cost is charged by ChargeBatch for
  /// the surviving crops).
  void ChargeFailedBatchItem(std::int64_t count);

  /// Charges raw simulated seconds with no counter: retry backoff and
  /// injected latency spikes. Deterministic sim-clock time, never a sleep.
  void ChargePenalty(double seconds);

  /// Charges `count` pair-gate evidence evaluations (tmerge::gate).
  void ChargeGateChecks(std::int64_t count);

  /// Records gate verdict counts (free; the evidence cost is charged by
  /// ChargeGateChecks).
  void RecordGateVerdicts(std::int64_t accepted, std::int64_t rejected,
                          std::int64_t ambiguous);

  double elapsed_seconds() const { return clock_.elapsed_seconds(); }
  const UsageStats& stats() const { return stats_; }
  const CostModel& model() const { return model_; }

 private:
  CostModel model_;
  core::SimClock clock_;
  UsageStats stats_;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_COST_MODEL_H_
