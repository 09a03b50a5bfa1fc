#include "tmerge/merge/bandit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace tmerge::merge::internal {

ArmTable::ArmTable(const PairContext& context, const reid::ReidModel& model,
                   reid::FeatureCache& cache, const SelectorOptions& options,
                   std::uint64_t salt)
    : context_(context),
      model_(model),
      meter_(options.cost_model),
      // Per-window fault tolerance, charge-identical to the bare cache
      // until a failpoint fires (see reid/reid_guard.h).
      guard_(options.fault_policy, cache, model, meter_),
      rng_(options.seed ^ salt),
      batched_(options.batch_size > 1) {
  const std::size_t num_arms = context.num_pairs();
  samplers_.reserve(num_arms);
  live_.reserve(num_arms);
  for (std::size_t p = 0; p < num_arms; ++p) {
    samplers_.emplace_back(context.TrackA(p).size(), context.TrackB(p).size());
    live_.push_back(samplers_.back().Exhausted() ? 0 : 1);
  }
  sum_.assign(num_arms, 0.0);
  pulls_.assign(num_arms, 0);
}

const std::vector<std::optional<double>>& ArmTable::Pull(
    std::span<const std::size_t> arms) {
  crops_.clear();
  for (std::size_t arm : arms) {
    auto [row, col] = samplers_[arm].Sample(rng_);
    // The cell is spent whether or not the pull succeeds, so an arm whose
    // last cell fails leaves the live set too.
    if (samplers_[arm].Exhausted()) live_[arm] = 0;
    crops_.push_back(context_.CropsA(arm)[row]);
    crops_.push_back(context_.CropsB(arm)[col]);
  }
  // Crops that fail in the batched prefetch are retried on the single path
  // below (charge-identical to GetOrEmbedBatch + GetOrEmbed when disarmed).
  if (batched_) guard_.TryGetBatch(crops_);
  distances_.clear();
  for (std::size_t i = 0; i < arms.size(); ++i) {
    reid::FeatureView fa = guard_.TryGet(crops_[2 * i]);
    reid::FeatureView fb =
        fa.valid() ? guard_.TryGet(crops_[2 * i + 1]) : reid::FeatureView();
    if (!fa.valid() || !fb.valid()) {
      // Failed pull: budget, cell and cost are spent, but an error is not
      // evidence about the pair's distance.
      ++result_.failed_pulls;
      distances_.emplace_back();
      continue;
    }
    const double distance = model_.NormalizedDistance(fa, fb);
    if (batched_) {
      meter_.ChargeDistanceBatched(1);
    } else {
      meter_.ChargeDistance(1);
    }
    sum_[arms[i]] += distance;
    ++pulls_[arms[i]];
    ++result_.box_pairs_evaluated;
    result_.sum_sampled_distance += distance;
    distances_.emplace_back(distance);
  }
  return distances_;
}

void ArmTable::RunUlb(std::int64_t tau, std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = samplers_.size();
  lower_of_.resize(n);
  upper_of_.resize(n);
  double log_tau = std::log(std::max<double>(2.0, static_cast<double>(tau)));
  for (std::size_t p = 0; p < n; ++p) {
    double lower = -kInf, upper = kInf;
    if (pulls_[p] > 0) {
      double radius =
          std::sqrt(2.0 * log_tau / static_cast<double>(pulls_[p]));
      lower = mean(p) - radius;
      upper = mean(p) + radius;
    }
    if (exhausted(p)) lower = upper = mean(p);  // Exact score.
    lower_of_[p] = lower;
    upper_of_[p] = upper;
  }
  const UlbPruned pruned =
      DecideUlb(lower_of_, upper_of_, pulls_, live_, k, scratch_);
  result_.ulb_pruned_in += pruned.in;
  result_.ulb_pruned_out += pruned.out;
  meter_.ChargeOverhead(static_cast<std::int64_t>(n));
}

UlbPruned DecideUlb(std::span<const double> lower,
                    std::span<const double> upper,
                    std::span<const std::int64_t> pulls,
                    std::span<std::uint8_t> live, std::size_t k,
                    std::vector<double>& scratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Algorithm 4 only counts: pairs whose lower bound is below p's upper
  // (p itself excluded), and pairs whose upper bound is below p's lower,
  // each against k. Fewer than j + 1 values lie below x exactly when the
  // j-th smallest value (0-indexed) is >= x, so three order statistics
  // decide every arm: the (k-1)-th and k-th smallest lower bounds and the
  // (k-1)-th smallest upper bound. An order statistic before the first is
  // -inf and one past the last +inf, which is what the counts imply.
  const auto kk = static_cast<std::ptrdiff_t>(k);
  const auto n = static_cast<std::ptrdiff_t>(lower.size());
  auto order_statistic = [&](std::span<const double> values,
                             std::ptrdiff_t j) {
    if (j < 0) return -kInf;
    if (j >= n) return kInf;
    scratch.assign(values.begin(), values.end());
    std::nth_element(scratch.begin(), scratch.begin() + j, scratch.end());
    return scratch[static_cast<std::size_t>(j)];
  };
  const double lower_k = order_statistic(lower, kk);
  double lower_k_minus_1 = kInf;
  if (kk == 0) {
    lower_k_minus_1 = -kInf;
  } else if (kk < n) {
    // nth_element left the k smallest lower bounds in front of the k-th.
    lower_k_minus_1 = *std::max_element(scratch.begin(), scratch.begin() + kk);
  } else if (kk == n) {
    lower_k_minus_1 = *std::max_element(lower.begin(), lower.end());
  }
  const double upper_k_minus_1 = order_statistic(upper, kk - 1);

  UlbPruned pruned;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    if (live[p] == 0 || pulls[p] == 0) continue;
    // Pairs that could rank below p: fewer than k of them, p excluded,
    // have a lower bound strictly below p's upper.
    const bool self = lower[p] < upper[p];
    if ((self ? lower_k : lower_k_minus_1) >= upper[p]) {
      live[p] = 0;
      ++pruned.in;
      continue;
    }
    // Pairs certainly below p: at least k upper bounds strictly below p's
    // lower.
    if (upper_k_minus_1 < lower[p]) {
      live[p] = 0;
      ++pruned.out;
    }
  }
  return pruned;
}

SelectionResult ArmTable::Finish(const std::vector<double>& scores,
                                 std::size_t k) {
  result_.candidates = TopKByScore(context_, scores, k);
  result_.simulated_seconds = meter_.elapsed_seconds();
  result_.usage = meter_.stats();
  result_.reid_retries = guard_.retries();
  result_.degraded = guard_.breaker_open();
  return std::move(result_);
}

}  // namespace tmerge::merge::internal
