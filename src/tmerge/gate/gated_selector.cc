#include "tmerge/gate/gated_selector.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "tmerge/reid/embed_scheduler.h"

namespace tmerge::gate {
namespace {

/// Floor on the inner bandit's budget scale, so a near-empty ambiguous set
/// still gets a usable budget.
constexpr double kMinBudgetScale = 0.05;

}  // namespace

GatedSelector::GatedSelector(merge::CandidateSelector& inner,
                             const GateConfig& config)
    : inner_(inner), config_(config) {}

std::string GatedSelector::name() const {
  return "Gated(" + inner_.name() + ")";
}

merge::SelectionResult GatedSelector::Select(
    const merge::PairContext& context, const reid::ReidModel& model,
    reid::FeatureCache& cache, const merge::SelectorOptions& options) {
  if (!config_.enabled) {
    // Pass-through: forward verbatim. No meter, no copy — the inner result
    // IS the result, bit for bit.
    return inner_.Select(context, model, cache, options);
  }

  reid::InferenceMeter gate_meter(options.cost_model);
  const std::size_t num_pairs = context.num_pairs();

  // 1. Classify every pair. Evidence is retained because the overflow
  // demotion below ranks accepted pairs by it.
  std::vector<GateEvidence> evidence(num_pairs);
  std::vector<GateVerdict> verdicts(num_pairs, GateVerdict::kAmbiguous);
  GateCounts counts;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    evidence[p] = ComputeEvidence(context, p);
    verdicts[p] = Classify(evidence[p], config_);
    switch (verdicts[p]) {
      case GateVerdict::kAccept:
        ++counts.accepted;
        break;
      case GateVerdict::kReject:
        ++counts.rejected;
        break;
      case GateVerdict::kAmbiguous:
        ++counts.ambiguous;
        break;
    }
  }
  gate_meter.ChargeGateChecks(static_cast<std::int64_t>(num_pairs));
  gate_meter.RecordGateVerdicts(counts.accepted, counts.rejected,
                                counts.ambiguous);

  // 2. Accepted pairs become candidates directly, capped at the window's
  // top-K count. Overflow keeps the strongest evidence (highest
  // extrapolated IoU, ties by pair index — a strict total order, so the
  // demotion is deterministic) and demotes the rest to ambiguous.
  const std::size_t k_total = merge::TopKCount(options.k_fraction, num_pairs);
  std::vector<std::size_t> accepted;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (verdicts[p] == GateVerdict::kAccept) accepted.push_back(p);
  }
  if (accepted.size() > k_total) {
    std::sort(accepted.begin(), accepted.end(),
              [&evidence](std::size_t a, std::size_t b) {
                if (evidence[a].extrapolated_iou !=
                    evidence[b].extrapolated_iou) {
                  return evidence[a].extrapolated_iou >
                         evidence[b].extrapolated_iou;
                }
                return a < b;
              });
    for (std::size_t i = k_total; i < accepted.size(); ++i) {
      verdicts[accepted[i]] = GateVerdict::kAmbiguous;
    }
    accepted.resize(k_total);
    // Back to pair-index order for stable candidate emission.
    std::sort(accepted.begin(), accepted.end());
  }

  // 3./4. Rejected pairs vanish; ambiguous pairs (including demotions, in
  // pair-index order) form the inner selector's sub-window.
  std::vector<metrics::TrackPairKey> ambiguous_keys;
  std::vector<std::size_t> ambiguous_indices;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (verdicts[p] == GateVerdict::kAmbiguous) {
      ambiguous_keys.push_back(context.pair(p));
      ambiguous_indices.push_back(p);
    }
  }
  const std::size_t m = ambiguous_keys.size();
  const std::size_t remaining = k_total - accepted.size();

  merge::SelectionResult result;
  if (m > 0 && remaining > 0) {
    merge::PairContext sub_context(context.result(),
                                   std::move(ambiguous_keys));
    merge::SelectorOptions inner_options = options;
    // ceil(k' * m) == min(remaining, m): the inner selector fills exactly
    // the candidate slots the accepted pairs left open.
    inner_options.k_fraction =
        remaining >= m
            ? 1.0
            : (static_cast<double>(remaining) - 0.5) / static_cast<double>(m);
    // The bandit budget shrinks to the ambiguous fraction of the window,
    // so tau_max tracks the work the gate left behind.
    inner_options.budget_scale =
        std::max(kMinBudgetScale,
                 static_cast<double>(m) / static_cast<double>(num_pairs));
    if (config_.prefetch_ambiguous && options.embed_scheduler != nullptr) {
      // Warm the cache through the batched scheduler so the inner
      // selector's misses turn into batch-amortized charges. The
      // scheduler dedups against the cache and within the group; charges
      // land on the gate meter (same cost model, summed below).
      std::vector<reid::CropRef> crops;
      for (std::size_t p : ambiguous_indices) {
        const auto& a = context.CropsA(p);
        const auto& b = context.CropsB(p);
        crops.insert(crops.end(), a.begin(), a.end());
        crops.insert(crops.end(), b.begin(), b.end());
      }
      options.embed_scheduler->EmbedAll(crops, cache, model, gate_meter,
                                        options.seed);
    }
    result = inner_.Select(sub_context, model, cache, inner_options);
  }

  // Compose: accepted candidates first (pair-index order), then the inner
  // selector's picks (disjoint by construction — accepted pairs are not in
  // the sub-window).
  std::vector<metrics::TrackPairKey> candidates;
  candidates.reserve(accepted.size() + result.candidates.size());
  for (std::size_t p : accepted) candidates.push_back(context.pair(p));
  candidates.insert(candidates.end(), result.candidates.begin(),
                    result.candidates.end());
  result.candidates = std::move(candidates);
  result.simulated_seconds += gate_meter.elapsed_seconds();
  result.usage += gate_meter.stats();
  return result;
}

}  // namespace tmerge::gate
