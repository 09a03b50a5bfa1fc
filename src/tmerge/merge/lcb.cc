#include "tmerge/merge/lcb.h"

#include <cmath>
#include <limits>
#include <vector>

#include "tmerge/core/status.h"

namespace tmerge::merge {

LcbSelector::LcbSelector(std::int64_t tau_max) : tau_max_(tau_max) {
  TMERGE_CHECK(tau_max > 0);
}

SelectionResult LcbSelector::Select(const PairContext& context,
                                    const reid::ReidModel& model,
                                    reid::FeatureCache& cache,
                                    const SelectorOptions& options) {
  reid::InferenceMeter meter(options.cost_model);
  // Per-window fault tolerance, charge-identical to the bare cache until a
  // failpoint fires (see reid/reid_guard.h).
  reid::ReidGuard guard(options.fault_policy, cache, model, meter);
  core::Rng rng(options.seed ^ 0x1CBULL);
  const bool batched = options.batch_size > 1;
  const std::size_t num_pairs = context.num_pairs();
  const std::int64_t tau_max =
      internal::ScaledBudget(tau_max_, options.budget_scale);

  SelectionResult result;
  if (num_pairs == 0) return result;

  std::vector<BoxPairSampler> samplers;
  samplers.reserve(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    samplers.emplace_back(context.TrackA(p).size(), context.TrackB(p).size());
  }
  std::vector<double> sum(num_pairs, 0.0);
  std::vector<std::int64_t> pulls(num_pairs, 0);

  auto evaluate_pair = [&](std::size_t p) {
    auto [row, col] = samplers[p].Sample(rng);
    reid::CropRef crop_a = context.CropsA(p)[row];
    reid::CropRef crop_b = context.CropsB(p)[col];
    if (batched) {
      guard.TryGetBatch({crop_a, crop_b});
    }
    reid::FeatureView fa = guard.TryGet(crop_a);
    reid::FeatureView fb =
        fa.valid() ? guard.TryGet(crop_b) : reid::FeatureView();
    if (!fa.valid() || !fb.valid()) {
      // Failed pull: tau and the sampler cell are spent, cost is charged,
      // but the running mean sees nothing (errors are not evidence).
      ++result.failed_pulls;
      return;
    }
    double distance = model.NormalizedDistance(fa, fb);
    if (batched) {
      meter.ChargeDistanceBatched(1);
    } else {
      meter.ChargeDistance(1);
    }
    sum[p] += distance;
    ++pulls[p];
    ++result.box_pairs_evaluated;
    result.sum_sampled_distance += distance;
  };

  // One initial pull per pair so every bound is defined.
  std::int64_t tau = 0;
  for (std::size_t p = 0; p < num_pairs && tau < tau_max; ++p) {
    if (samplers[p].Exhausted()) continue;
    evaluate_pair(p);
    ++tau;
  }

  for (; tau < tau_max; ++tau) {
    double best_bound = std::numeric_limits<double>::infinity();
    std::size_t best_pair = num_pairs;
    // 2 ln(tau + 1), shared by every arm's radius this round.
    const double two_log_tau = 2.0 * std::log(static_cast<double>(tau + 1));
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (samplers[p].Exhausted()) continue;
      // A pair whose initial pull failed (injected fault) still has zero
      // pulls; its bound is vacuously -inf — maximally optimistic, so it
      // is sampled first — rather than a crash.
      double bound = -std::numeric_limits<double>::infinity();
      if (pulls[p] > 0) {
        double mean = sum[p] / static_cast<double>(pulls[p]);
        double radius =
            std::sqrt(two_log_tau / static_cast<double>(pulls[p]));
        bound = mean - radius;
      }
      if (bound < best_bound) {
        best_bound = bound;
        best_pair = p;
      }
    }
    meter.ChargeOverhead(static_cast<std::int64_t>(num_pairs));
    if (best_pair == num_pairs) break;  // Everything exhausted.
    evaluate_pair(best_pair);
  }

  std::vector<double> scores(num_pairs, 1.0);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (pulls[p] > 0) scores[p] = sum[p] / static_cast<double>(pulls[p]);
  }
  result.candidates = internal::TopKByScore(
      context, scores, TopKCount(options.k_fraction, num_pairs));
  result.simulated_seconds = meter.elapsed_seconds();
  result.usage = meter.stats();
  result.reid_retries = guard.retries();
  result.degraded = guard.breaker_open();
  return result;
}

}  // namespace tmerge::merge
