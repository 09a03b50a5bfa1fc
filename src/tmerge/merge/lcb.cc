#include "tmerge/merge/lcb.h"

#include <cmath>
#include <limits>
#include <vector>

#include "tmerge/core/status.h"
#include "tmerge/merge/bandit.h"

namespace tmerge::merge {

LcbSelector::LcbSelector(std::int64_t tau_max) : tau_max_(tau_max) {
  TMERGE_CHECK(tau_max > 0);
}

SelectionResult LcbSelector::Select(const PairContext& context,
                                    const reid::ReidModel& model,
                                    reid::FeatureCache& cache,
                                    const SelectorOptions& options) {
  const std::size_t num_pairs = context.num_pairs();
  if (num_pairs == 0) return {};
  internal::ArmTable arms(context, model, cache, options, 0x1CBULL);
  const std::int64_t tau_max =
      internal::ScaledBudget(tau_max_, options.budget_scale);

  // One initial pull per pair so every bound is defined.
  std::int64_t tau = 0;
  for (std::size_t p = 0; p < num_pairs && tau < tau_max; ++p) {
    if (!arms.live(p)) continue;
    arms.Pull({&p, 1});
    ++tau;
  }

  for (; tau < tau_max; ++tau) {
    double best_bound = std::numeric_limits<double>::infinity();
    std::size_t best_pair = num_pairs;
    // 2 ln(tau + 1), shared by every arm's radius this round.
    const double two_log_tau = 2.0 * std::log(static_cast<double>(tau + 1));
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (!arms.live(p)) continue;
      // A pair whose initial pull failed (injected fault) still has zero
      // pulls; its bound is vacuously -inf — maximally optimistic, so it
      // is sampled first — rather than a crash.
      double bound = -std::numeric_limits<double>::infinity();
      if (arms.pulls(p) > 0) {
        double radius =
            std::sqrt(two_log_tau / static_cast<double>(arms.pulls(p)));
        bound = arms.mean(p) - radius;
      }
      if (bound < best_bound) {
        best_bound = bound;
        best_pair = p;
      }
    }
    arms.meter().ChargeOverhead(static_cast<std::int64_t>(num_pairs));
    if (best_pair == num_pairs) break;  // Everything exhausted.
    arms.Pull({&best_pair, 1});
  }

  std::vector<double> scores(num_pairs, 1.0);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (arms.pulls(p) > 0) scores[p] = arms.mean(p);
  }
  return arms.Finish(scores, TopKCount(options.k_fraction, num_pairs));
}

}  // namespace tmerge::merge
