#include "tmerge/merge/tmerge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/core/status.h"
#include "tmerge/obs/span.h"

namespace tmerge::merge {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class PairState : std::uint8_t {
  kLive = 0,       // Still being sampled.
  kPrunedIn,       // Certainly in the top-K; sampling stopped (ULB).
  kPrunedOut,      // Certainly outside the top-K; sampling stopped (ULB).
  kExhausted,      // Every BBox pair evaluated; exact score known.
};

struct PairBandit {
  core::BetaPosterior beta;
  double sum = 0.0;
  std::int64_t pulls = 0;
  PairState state = PairState::kLive;

  double SampleMean() const {
    return pulls > 0 ? sum / static_cast<double>(pulls) : 0.5;
  }
};

// Algorithm 4 (ULB): freezes pairs whose top-K membership is already
// decided by Hoeffding bounds. Bounds of never-sampled pairs are vacuous.
internal::UlbCounts RunUlb(std::vector<PairBandit>& bandits,
                           std::int64_t tau, std::size_t k_count) {
  internal::UlbCounts counts;
  const std::size_t n = bandits.size();
  std::vector<double> lowers, uppers;
  lowers.reserve(n);
  uppers.reserve(n);
  std::vector<double> lower_of(n), upper_of(n);
  double log_tau = std::log(std::max<double>(2.0, static_cast<double>(tau)));
  for (std::size_t p = 0; p < n; ++p) {
    double lower = -kInf, upper = kInf;
    if (bandits[p].pulls > 0) {
      double mean = bandits[p].SampleMean();
      double radius =
          std::sqrt(2.0 * log_tau / static_cast<double>(bandits[p].pulls));
      lower = mean - radius;
      upper = mean + radius;
    }
    if (bandits[p].state == PairState::kExhausted) {
      // Exact score: zero-width interval.
      lower = upper = bandits[p].SampleMean();
    }
    lower_of[p] = lower;
    upper_of[p] = upper;
    lowers.push_back(lower);
    uppers.push_back(upper);
  }
  std::sort(lowers.begin(), lowers.end());
  std::sort(uppers.begin(), uppers.end());

  for (std::size_t p = 0; p < n; ++p) {
    if (bandits[p].state != PairState::kLive) continue;
    if (bandits[p].pulls == 0) continue;
    // Pairs that could rank below p: lower bound strictly below p's upper.
    auto possibly_below = static_cast<std::size_t>(
        std::lower_bound(lowers.begin(), lowers.end(), upper_of[p]) -
        lowers.begin());
    if (lower_of[p] < upper_of[p]) --possibly_below;  // Exclude p itself.
    if (possibly_below + 1 <= k_count) {
      bandits[p].state = PairState::kPrunedIn;
      ++counts.pruned_in;
      continue;
    }
    // Pairs certainly below p: upper bound strictly below p's lower.
    auto certainly_below = static_cast<std::size_t>(
        std::lower_bound(uppers.begin(), uppers.end(), lower_of[p]) -
        uppers.begin());
    if (certainly_below >= k_count) {
      bandits[p].state = PairState::kPrunedOut;
      ++counts.pruned_out;
    }
  }
  return counts;
}

#ifndef TMERGE_OBS_DISABLED
/// Publishes one window's bandit internals: total arm pulls (= tau), ULB
/// pruning outcomes, the tau actually spent, and the window-mean posterior
/// shape parameters (alpha = S, beta = F) as a cheap summary of how far
/// the posteriors moved from the Beta(1,1) / BetaInit priors.
void RecordBanditObs(std::int64_t tau,
                     const std::vector<PairBandit>& bandits,
                     const internal::UlbCounts& total_pruned) {
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
  pruned_in.Add(total_pruned.pruned_in);
  pruned_out.Add(total_pruned.pruned_out);
  tau_spent.Record(static_cast<double>(tau));
  if (!bandits.empty()) {
    double alpha_sum = 0.0, beta_sum = 0.0;
    for (const PairBandit& bandit : bandits) {
      alpha_sum += bandit.beta.s();
      beta_sum += bandit.beta.f();
    }
    double n = static_cast<double>(bandits.size());
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
  reid::InferenceMeter meter(options.cost_model);
  // Per-window fault tolerance: every feature pull goes through the guard,
  // which is charge-identical to the bare cache until a failpoint fires.
  reid::ReidGuard guard(options.fault_policy, cache, model, meter);
  core::Rng rng(options.seed ^ 0x73A3ULL);
  const bool batched = options.batch_size > 1;
  const std::size_t num_pairs = context.num_pairs();
  const std::size_t k_count = TopKCount(options.k_fraction, num_pairs);
  const std::int64_t tau_max =
      internal::ScaledBudget(options_.tau_max, options.budget_scale);

  SelectionResult result;
  if (num_pairs == 0) return result;

  // --- Initialization: BetaInit (Algorithm 3) or flat Beta(1, 1). ---
  std::vector<PairBandit> bandits(num_pairs);
  std::vector<BoxPairSampler> samplers;
  samplers.reserve(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    samplers.emplace_back(context.TrackA(p).size(), context.TrackB(p).size());
    if (options_.use_beta_init &&
        context.SpatialDistance(p) < options_.thr_s) {
      // Spatially close fragments are promising: lower the prior mean so
      // they are sampled earlier (F += 1).
      bandits[p].beta.AddPseudoCounts(0.0, 1.0);
    }
  }

  // Evaluates one fresh BBox pair of `p`; returns the normalized distance.
  auto evaluate_one = [&](std::size_t p,
                          std::vector<reid::CropRef>* batch_crops)
      -> std::pair<reid::CropRef, reid::CropRef> {
    auto [row, col] = samplers[p].Sample(rng);
    reid::CropRef crop_a = context.CropsA(p)[row];
    reid::CropRef crop_b = context.CropsB(p)[col];
    if (batch_crops != nullptr) {
      batch_crops->push_back(crop_a);
      batch_crops->push_back(crop_b);
    }
    return {crop_a, crop_b};
  };

  auto finish_evaluation = [&](std::size_t p, const reid::CropRef& crop_a,
                               const reid::CropRef& crop_b) {
    reid::FeatureView fa = guard.TryGet(crop_a);
    reid::FeatureView fb =
        fa.valid() ? guard.TryGet(crop_b) : reid::FeatureView();
    if (!fa.valid() || !fb.valid()) {
      // Failed pull (degraded mode): the sampler cell and tau budget are
      // already spent and the failed inference was charged, but the
      // posterior is NOT updated and no Bernoulli draw is consumed — an
      // error must never look like evidence about the pair's distance.
      // The exhaustion check still runs: the cell is gone either way, and
      // skipping it would let the arg-min loop re-Sample() an exhausted
      // sampler.
      ++result.failed_pulls;
      if (samplers[p].Exhausted() && bandits[p].state == PairState::kLive) {
        bandits[p].state = PairState::kExhausted;
      }
      return;
    }
    double distance = model.NormalizedDistance(fa, fb);
    if (batched) {
      meter.ChargeDistanceBatched(1);
    } else {
      meter.ChargeDistance(1);
    }
    // Bernoulli trial with success probability d~ (Lines 9-13).
    bool r = rng.Bernoulli(distance);
    bandits[p].beta.Observe(r);
    bandits[p].sum += distance;
    ++bandits[p].pulls;
    ++result.box_pairs_evaluated;
    result.sum_sampled_distance += distance;
    if (samplers[p].Exhausted() && bandits[p].state == PairState::kLive) {
      bandits[p].state = PairState::kExhausted;
    }
  };

  // --- Main Thompson-sampling loop (Algorithm 2, Lines 3-14). ---
  std::int64_t tau = 0;
  std::int64_t next_ulb = options_.ulb_period;
  const std::size_t round_size =
      batched ? static_cast<std::size_t>(options.batch_size) : 1;

  std::vector<std::pair<double, std::size_t>> draws;
  while (tau < tau_max) {
    draws.clear();
    for (std::size_t p = 0; p < num_pairs; ++p) {
      if (bandits[p].state != PairState::kLive) continue;
      draws.emplace_back(bandits[p].beta.Sample(rng), p);
    }
    meter.ChargeOverhead(static_cast<std::int64_t>(draws.size()));
    if (draws.empty()) break;

    std::size_t take = std::min<std::size_t>(
        {round_size, draws.size(),
         static_cast<std::size_t>(tau_max - tau)});
    std::partial_sort(draws.begin(), draws.begin() + take, draws.end());

    if (batched) {
      std::vector<reid::CropRef> crops;
      std::vector<std::pair<reid::CropRef, reid::CropRef>> pending(take);
      std::vector<std::size_t> chosen(take);
      for (std::size_t i = 0; i < take; ++i) {
        chosen[i] = draws[i].second;
        pending[i] = evaluate_one(chosen[i], &crops);
      }
      // Prefetch the round's crops in one batched call; crops that fail
      // here are retried on the single path inside finish_evaluation
      // (charge-identical to GetOrEmbedBatch + GetOrEmbed when disarmed).
      guard.TryGetBatch(crops);
      for (std::size_t i = 0; i < take; ++i) {
        finish_evaluation(chosen[i], pending[i].first, pending[i].second);
      }
      tau += static_cast<std::int64_t>(take);
    } else {
      std::size_t p = draws.front().second;
      auto [crop_a, crop_b] = evaluate_one(p, nullptr);
      finish_evaluation(p, crop_a, crop_b);
      ++tau;
    }

    if (options_.use_ulb && tau >= next_ulb) {
      internal::UlbCounts counts = RunUlb(bandits, tau, k_count);
      result.ulb_pruned_in += counts.pruned_in;
      result.ulb_pruned_out += counts.pruned_out;
      meter.ChargeOverhead(static_cast<std::int64_t>(num_pairs));
      next_ulb = tau + options_.ulb_period;
    }
  }

  // --- Final ranking (Line 15): lowest posterior means win. Exhausted
  // pairs are ranked by their exact score.
  std::vector<double> scores(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    scores[p] = bandits[p].state == PairState::kExhausted
                    ? bandits[p].SampleMean()
                    : bandits[p].beta.Mean();
  }
  result.candidates = internal::TopKByScore(context, scores, k_count);
  result.simulated_seconds = meter.elapsed_seconds();
  result.usage = meter.stats();
  result.reid_retries = guard.retries();
  result.degraded = guard.breaker_open();
  TMERGE_OBS(RecordBanditObs(
      tau, bandits,
      internal::UlbCounts{result.ulb_pruned_in, result.ulb_pruned_out}));
  return result;
}

}  // namespace tmerge::merge
