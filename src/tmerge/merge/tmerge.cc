#include "tmerge/merge/tmerge.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/merge/bandit.h"
#include "tmerge/obs/span.h"

namespace tmerge::merge {
namespace {

/// ULB bounds are recomputed every this many iterations — an engineering
/// batching of Algorithm 4's per-iteration pseudocode that changes only
/// bookkeeping cost, not results (pruning fires marginally later).
constexpr std::int64_t kUlbPeriod = 16;

#ifndef TMERGE_OBS_DISABLED
/// Publishes one window's bandit internals: total arm pulls (= tau), ULB
/// pruning outcomes, the tau actually spent, and the window-mean posterior
/// shape parameters (alpha = S, beta = F) as a cheap summary of how far
/// the posteriors moved from the Beta(1,1) / BetaInit priors.
void RecordBanditObs(std::int64_t tau,
                     const std::vector<core::BetaPosterior>& posteriors,
                     const SelectionResult& result) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& arm_pulls = registry.GetCounter("tmerge.arm_pulls");
  static obs::Counter& pruned_in =
      registry.GetCounter("tmerge.ulb.pruned_in");
  static obs::Counter& pruned_out =
      registry.GetCounter("tmerge.ulb.pruned_out");
  static obs::Histogram& tau_spent = registry.GetHistogram(
      "tmerge.tau_spent_per_window", obs::CountBounds());
  static obs::Histogram& alpha_mean = registry.GetHistogram(
      "tmerge.posterior.alpha_mean", obs::CountBounds());
  static obs::Histogram& beta_mean = registry.GetHistogram(
      "tmerge.posterior.beta_mean", obs::CountBounds());
  arm_pulls.Add(tau);
  pruned_in.Add(result.ulb_pruned_in);
  pruned_out.Add(result.ulb_pruned_out);
  tau_spent.Record(static_cast<double>(tau));
  if (!posteriors.empty()) {
    double alpha_sum = 0.0, beta_sum = 0.0;
    for (const core::BetaPosterior& posterior : posteriors) {
      alpha_sum += posterior.s();
      beta_sum += posterior.f();
    }
    double n = static_cast<double>(posteriors.size());
    alpha_mean.Record(alpha_sum / n);
    beta_mean.Record(beta_sum / n);
  }
}
#endif  // TMERGE_OBS_DISABLED

}  // namespace

SelectionResult TMergeSelector::Select(const PairContext& context,
                                       const reid::ReidModel& model,
                                       reid::FeatureCache& cache,
                                       const SelectorOptions& options) {
  const std::size_t num_pairs = context.num_pairs();
  if (num_pairs == 0) return {};
  internal::ArmTable arms(context, model, cache, options, 0x73A3ULL);
  core::Rng& rng = arms.rng();
  const std::size_t k_count = TopKCount(options.k_fraction, num_pairs);
  const std::int64_t tau_max =
      internal::ScaledBudget(options_.tau_max, options.budget_scale);

  // --- Initialization: BetaInit (Algorithm 3) or flat Beta(1, 1). ---
  std::vector<core::BetaPosterior> posteriors(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (options_.use_beta_init &&
        context.SpatialDistance(p) < options_.thr_s) {
      // Spatially close fragments are promising: lower the prior mean so
      // they are sampled earlier (F += 1).
      posteriors[p].AddPseudoCounts(0.0, 1.0);
    }
  }

  // --- Main Thompson-sampling loop (Algorithm 2, Lines 3-14). ---
  std::int64_t tau = 0;
  std::int64_t next_ulb = kUlbPeriod;
  const auto round_size =
      static_cast<std::size_t>(std::max(options.batch_size, 1));

  std::vector<std::pair<double, std::size_t>> draws;
  std::vector<std::size_t> chosen;
  while (tau < tau_max) {
    draws.clear();
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (arms.live(p)) draws.emplace_back(posteriors[p].Sample(rng), p);
    }
    arms.meter().ChargeOverhead(static_cast<std::int64_t>(draws.size()));
    if (draws.empty()) break;

    std::size_t take = std::min<std::size_t>(
        {round_size, draws.size(),
         static_cast<std::size_t>(tau_max - tau)});
    std::partial_sort(draws.begin(), draws.begin() + take, draws.end());
    chosen.clear();
    for (std::size_t i = 0; i < take; ++i) chosen.push_back(draws[i].second);
    const std::vector<std::optional<double>>& distances = arms.Pull(chosen);
    // Bernoulli trial with success probability d~ (Lines 9-13), in pull
    // order. A failed pull draws no trial and leaves the posterior alone.
    for (std::size_t i = 0; i < take; ++i) {
      if (distances[i]) {
        posteriors[chosen[i]].Observe(rng.Bernoulli(*distances[i]));
      }
    }
    tau += static_cast<std::int64_t>(take);

    if (options_.use_ulb && tau >= next_ulb) {
      arms.RunUlb(tau, k_count);
      next_ulb = tau + kUlbPeriod;
    }
  }

  // --- Final ranking (Line 15): lowest posterior means win. Exhausted
  // pairs are ranked by their exact score.
  std::vector<double> scores(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    scores[p] = arms.exhausted(p) ? arms.mean(p) : posteriors[p].Mean();
  }
  SelectionResult result = arms.Finish(scores, k_count);
  TMERGE_OBS(RecordBanditObs(tau, posteriors, result));
  return result;
}

}  // namespace tmerge::merge
