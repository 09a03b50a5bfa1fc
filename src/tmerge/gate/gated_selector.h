#ifndef TMERGE_GATE_GATED_SELECTOR_H_
#define TMERGE_GATE_GATED_SELECTOR_H_

#include <string>

#include "tmerge/gate/pair_gate.h"
#include "tmerge/merge/selector.h"

namespace tmerge::gate {

/// Decorator that puts a PairGate in front of any CandidateSelector.
///
/// Disabled (GateConfig::enabled == false, the default), Select forwards to
/// the inner selector verbatim — same context, same options, same result
/// object — so a pass-through GatedSelector is bit-identical to the bare
/// selector by construction (pinned for every selector, batched and
/// streaming, by tests/gate/gate_differential_test.cc).
///
/// Enabled, one Select call becomes:
///   1. Classify every pair of the window from cheap geometric evidence
///      (pair_gate.h), charging gate_check_seconds per pair and recording
///      the verdict counters into UsageStats.
///   2. Accepted pairs are emitted as candidates directly, spending no ReID
///      budget. When more pairs are accepted than the window's top-K count,
///      the strongest (highest extrapolated IoU, ties broken by pair index)
///      keep their acceptance and the overflow is demoted to ambiguous.
///   3. Rejected pairs are dropped before selection.
///   4. Ambiguous pairs form a sub-window (a PairContext over the same
///      TrackingResult) handed to the inner selector, with k adjusted so
///      the inner selector returns exactly the remaining candidate slots,
///      and the bandit budget scaled to the ambiguous fraction (floored at
///      0.05) via SelectorOptions::budget_scale. With prefetch_ambiguous
///      and a SelectorOptions::embed_scheduler, the ambiguous pairs' crops
///      are pushed through the EmbedScheduler first, so the inner
///      selector's misses become CostModel-optimal batches.
///
/// Posterior safety: gate verdicts NEVER become bandit evidence. Accepted
/// and rejected pairs are excluded from the inner selector's context
/// entirely — their posteriors are simply never created — rather than
/// being converted into synthetic Bernoulli observations, mirroring how
/// ReidGuard keeps failed pulls out of the posteriors (DESIGN.md "Fault
/// model"). The bandit only ever updates on distances it actually
/// measured.
///
/// Stateless across Select calls like every selector (the gate config is
/// construction-time), so one GatedSelector is safe to share across
/// EvaluateDataset's worker threads and stream merge jobs.
class GatedSelector : public merge::CandidateSelector {
 public:
  /// Wraps `inner`, which must outlive this object. Non-owning.
  GatedSelector(merge::CandidateSelector& inner, const GateConfig& config);

  merge::SelectionResult Select(const merge::PairContext& context,
                                const reid::ReidModel& model,
                                reid::FeatureCache& cache,
                                const merge::SelectorOptions& options) override;

  /// "Gated(<inner>)", e.g. "Gated(TMerge)".
  std::string name() const override;

  const GateConfig& config() const { return config_; }

 private:
  merge::CandidateSelector& inner_;
  const GateConfig config_;
};

}  // namespace tmerge::gate

#endif  // TMERGE_GATE_GATED_SELECTOR_H_
