#include "tmerge/merge/tmerge.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/core/status.h"
#include "tmerge/merge/bandit.h"
#include "tmerge/obs/span.h"

namespace tmerge::merge {
namespace {

/// ULB bounds are recomputed every this many iterations — an engineering
/// batching of Algorithm 4's per-iteration pseudocode that changes only
/// bookkeeping cost, not results (pruning fires marginally later).
constexpr std::int64_t kUlbPeriod = 16;

/// ln(n!) for whole n >= 0: a table of running sums of logs below 2048
/// (carried in long double, so each entry rounds once to double), and
/// Stirling's series to 1/(360 n^3) above (error below 1e-19 there).
double LogFactorial(double n) {
  static const std::array<double, 2048> table = [] {
    std::array<double, 2048> values{};
    long double sum = 0.0L;
    for (std::size_t i = 1; i < values.size(); ++i) {
      sum += std::log(static_cast<long double>(i));
      values[i] = static_cast<double>(sum);
    }
    return values;
  }();
  if (n < static_cast<double>(table.size())) {
    return table[static_cast<std::size_t>(n)];
  }
  constexpr double kHalfLogTwoPi = 0.91893853320467274178;
  return n * std::log(n) - n + 0.5 * std::log(n) + kHalfLogTwoPi +
         1.0 / (12.0 * n) - 1.0 / (360.0 * n * n * n);
}

/// The Beta(s, f) CDF at x in (0, 1) and its density, for whole s, f >= 1.
struct BetaCdf {
  double cdf;
  double pdf;
};

/// I_x(s, f) = P(Bin(n, x) >= s) with n = s + f - 1. `log_choose` is
/// ln C(n, s). The binomial terms rise up to the mode and fall after it,
/// so the sum starts from its largest term: below the mode, the upper
/// tail upward from j = s (no cancellation near 0); above it, the lower
/// tail downward from j = s - 1, subtracted from 1. Each sum stops once
/// its terms no longer reach the last bits.
BetaCdf IntegerBetaCdf(double s, double f, double log_choose, double x) {
  const double n = s + f - 1.0;
  const double log_x = std::log(x);
  const double log_y = std::log1p(-x);
  // P(Bin(n, x) = s); the density is that times s / x.
  const double at_s = std::exp(log_choose + s * log_x + (f - 1.0) * log_y);
  const double pdf = at_s * s / x;
  if ((n + 1.0) * x <= s + 1.0) {
    const double odds = x / (1.0 - x);
    double term = at_s;
    double sum = at_s;
    for (double j = s; j < n; j += 1.0) {
      term *= (n - j) / (j + 1.0) * odds;
      sum += term;
      if (term <= sum * 0x1.0p-60) break;
    }
    return {sum, pdf};
  }
  const double inverse_odds = (1.0 - x) / x;
  double term = at_s * (s / f) * inverse_odds;  // P(Bin(n, x) = s - 1).
  double lower = term;
  for (double j = s - 1.0; j > 0.0; j -= 1.0) {
    term *= j / (n - j + 1.0) * inverse_odds;
    lower += term;
    if (term <= lower * 0x1.0p-60) break;
  }
  return {1.0 - lower, pdf};
}

/// The x in [lo, hi] with I_x(s, f) = q, given I_lo(s, f) = q_lo <= q and
/// q < I_hi(s, f). Newton's method on ln I in ln x, where the CDF is
/// nearly a power law, started from its small-x form C(n, s) x^s; a step
/// that leaves the shrinking bracket bisects instead.
double InvertIntegerBeta(double s, double f, double log_choose, double q,
                         double lo, double q_lo, double hi) {
  if (q <= q_lo) return lo;
  const double log_q = std::log(q);
  double x = std::exp((log_q - log_choose) / s);
  if (!(x > lo && x < hi)) x = 0.5 * (lo + hi);
  for (int step = 0; step < 200; ++step) {
    const BetaCdf at = IntegerBetaCdf(s, f, log_choose, x);
    if (at.cdf < q) {
      lo = x;
    } else {
      hi = x;
    }
    double next = x * std::exp((log_q - std::log(at.cdf)) * at.cdf /
                               (x * at.pdf));
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - x) <= 0x1.0p-50 * x) return next;
    x = next;
  }
  return x;
}

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

}  // namespace

namespace internal {

PosteriorBuckets::PosteriorBuckets(std::size_t num_arms)
    : slot_of_(num_arms, kNone), index_in_slot_(num_arms, 0) {}

std::uint64_t PosteriorBuckets::Key(const core::BetaPosterior& posterior) {
  TMERGE_CHECK(posterior.s() < 0x1.0p32 && posterior.f() < 0x1.0p32);
  return static_cast<std::uint64_t>(posterior.s()) << 32 |
         static_cast<std::uint64_t>(posterior.f());
}

void PosteriorBuckets::Insert(std::size_t arm,
                              const core::BetaPosterior& posterior) {
  const std::uint64_t key = Key(posterior);
  // Keys are unique, so (key, 0) sorts first among the entries of `key`.
  auto it = std::lower_bound(order_.begin(), order_.end(),
                             std::make_pair(key, std::uint32_t{0}));
  std::uint32_t slot;
  if (it != order_.end() && it->first == key) {
    slot = it->second;
  } else {
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Bucket& bucket = slots_[slot];
    bucket.key = key;
    bucket.posterior = posterior;
    bucket.has_log_choose = false;
    order_.insert(it, {key, slot});
  }
  std::vector<std::uint32_t>& arms = slots_[slot].arms;
  slot_of_[arm] = slot;
  index_in_slot_[arm] = static_cast<std::uint32_t>(arms.size());
  arms.push_back(static_cast<std::uint32_t>(arm));
  ++size_;
}

void PosteriorBuckets::Erase(std::size_t arm) {
  const std::uint32_t slot = slot_of_[arm];
  Bucket& bucket = slots_[slot];
  const std::uint32_t index = index_in_slot_[arm];
  bucket.arms[index] = bucket.arms.back();
  index_in_slot_[bucket.arms[index]] = index;
  bucket.arms.pop_back();
  slot_of_[arm] = kNone;
  --size_;
  if (bucket.arms.empty()) {
    order_.erase(std::lower_bound(order_.begin(), order_.end(),
                                  std::make_pair(bucket.key, slot)));
    free_slots_.push_back(slot);
  }
}

void PosteriorBuckets::Update(std::size_t arm,
                              const core::BetaPosterior& posterior) {
  const std::uint32_t slot = slot_of_[arm];
  Bucket& bucket = slots_[slot];
  const std::uint64_t key = Key(posterior);
  auto to = std::lower_bound(order_.begin(), order_.end(),
                             std::make_pair(key, std::uint32_t{0}));
  if (bucket.arms.size() > 1 || (to != order_.end() && to->first == key)) {
    Erase(arm);
    Insert(arm, posterior);
    return;
  }
  // The arm is alone and its new key is new: the bucket takes the key in
  // place, which leaves the state Erase and Insert would leave.
  auto from = std::lower_bound(order_.begin(), order_.end(),
                               std::make_pair(bucket.key, slot));
  if (from < to) {
    std::rotate(from, from + 1, to);
    --to;
  } else {
    std::rotate(to, from, from + 1);
  }
  *to = {key, slot};
  bucket.key = key;
  bucket.posterior = posterior;
  bucket.has_log_choose = false;
}

bool PosteriorBuckets::Offer(double draw, std::uint32_t slot,
                             std::size_t take) {
  if (top_.size() == take) {
    std::pop_heap(top_.begin(), top_.end());
    top_.back() = {draw, slot};
  } else {
    top_.emplace_back(draw, slot);
  }
  std::push_heap(top_.begin(), top_.end());
  return top_.size() < take || draw < top_.front().first;
}

void PosteriorBuckets::DrawBucket(std::uint32_t slot, std::size_t take,
                                  core::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Bucket& bucket = slots_[slot];
  const double s = bucket.posterior.s();
  const double f = bucket.posterior.f();
  const auto m = static_cast<double>(bucket.arms.size());
  // The current take-th smallest theta; any value beats it while the
  // round has fewer than `take`.
  auto cap = [&] { return top_.size() < take ? kInf : top_.front().first; };
  // The j-th order statistic of m uniforms sits at level 1 - exp(log_rest),
  // log_rest summing log(V) / (m - j) over the draws so far.
  double log_rest = 0.0;
  if (s == 1.0 || f == 1.0) {
    for (double j = 0.0; j < m; j += 1.0) {
      log_rest += std::log1p(-rng.Uniform01()) / (m - j);
      // S = 1: G(x) = 1 - (1 - x)^F. F = 1: G(x) = x^S.
      const double draw = s == 1.0 ? -std::expm1(log_rest / f)
                                   : std::pow(-std::expm1(log_rest), 1.0 / s);
      if (!(draw < cap()) || !Offer(draw, slot, take)) return;
    }
    return;
  }
  if (!bucket.has_log_choose) {
    bucket.log_choose =
        LogFactorial(s + f - 1.0) - LogFactorial(s) - LogFactorial(f - 1.0);
    bucket.has_log_choose = true;
  }
  double lo = 0.0;      // The last order statistic taken, and its level.
  double level_lo = 0.0;
  double hi = std::min(cap(), 1.0);
  double level_hi = hi < 1.0 ? IntegerBetaCdf(s, f, bucket.log_choose, hi).cdf
                             : 1.0;
  for (double j = 0.0; j < m; j += 1.0) {
    log_rest += std::log1p(-rng.Uniform01()) / (m - j);
    const double level = -std::expm1(log_rest);
    if (!(level < level_hi)) {
      if (top_.size() == take) return;
      // The round still needs values, so this one counts even though its
      // level rounded up to 1.
      if (!Offer(hi, slot, take)) return;
      continue;
    }
    const double draw = InvertIntegerBeta(s, f, bucket.log_choose, level, lo,
                                          level_lo, hi);
    if (!Offer(draw, slot, take)) return;
    lo = draw;
    level_lo = level;
    if (top_.size() == take && top_.front().first < hi) {
      hi = top_.front().first;
      level_hi = IntegerBetaCdf(s, f, bucket.log_choose, hi).cdf;
    }
  }
}

void PosteriorBuckets::DrawRound(std::size_t take, core::Rng& rng,
                                 std::vector<std::size_t>& chosen) {
  top_.clear();
  // Singletons first, then the closed forms, so that the general shapes,
  // which cost a tail evaluation each, meet a low bar.
  shared_.clear();
  for (const auto& [key, slot] : order_) {
    const Bucket& bucket = slots_[slot];
    if (bucket.arms.size() > 1) {
      shared_.push_back(slot);
      continue;
    }
    const double draw = bucket.posterior.Sample(rng);
    if (top_.size() < take || draw < top_.front().first) {
      Offer(draw, slot, take);
    }
  }
  auto closed_form = [](const Bucket& bucket) {
    return bucket.posterior.s() == 1.0 || bucket.posterior.f() == 1.0;
  };
  for (std::uint32_t slot : shared_) {
    if (closed_form(slots_[slot])) DrawBucket(slot, take, rng);
  }
  for (std::uint32_t slot : shared_) {
    if (!closed_form(slots_[slot])) DrawBucket(slot, take, rng);
  }
  // Ascending theta; within a bucket, a uniform draw without replacement
  // names the arm behind each of its values.
  std::sort(top_.begin(), top_.end());
  chosen.clear();
  for (const auto& [draw, slot] : top_) {
    Bucket& bucket = slots_[slot];
    const std::size_t rest = bucket.arms.size() - bucket.picked;
    std::size_t index = bucket.picked;
    if (rest > 1) index += rng.Index(rest);
    std::swap(bucket.arms[bucket.picked], bucket.arms[index]);
    index_in_slot_[bucket.arms[bucket.picked]] = bucket.picked;
    index_in_slot_[bucket.arms[index]] = static_cast<std::uint32_t>(index);
    chosen.push_back(bucket.arms[bucket.picked]);
    ++bucket.picked;
  }
  for (const auto& entry : top_) slots_[entry.second].picked = 0;
}

}  // namespace internal

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
  internal::PosteriorBuckets buckets(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (arms.live(p)) buckets.Insert(p, posteriors[p]);
  }
  std::int64_t tau = 0;
  std::int64_t next_ulb = kUlbPeriod;
  const auto round_size =
      static_cast<std::size_t>(std::max(options.batch_size, 1));

  std::vector<std::size_t> chosen;
  while (tau < tau_max) {
    // One overhead charge per live pair per round, as for a draw per pair.
    arms.meter().ChargeOverhead(static_cast<std::int64_t>(buckets.size()));
    if (buckets.size() == 0) break;

    std::size_t take = std::min<std::size_t>(
        {round_size, buckets.size(),
         static_cast<std::size_t>(tau_max - tau)});
    buckets.DrawRound(take, rng, chosen);
    const std::vector<std::optional<double>>& distances = arms.Pull(chosen);
    // Bernoulli trial with success probability d~ (Lines 9-13), in pull
    // order. A failed pull draws no trial and leaves the posterior alone.
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t p = chosen[i];
      if (distances[i]) {
        posteriors[p].Observe(rng.Bernoulli(*distances[i]));
      }
      if (!arms.live(p)) {
        buckets.Erase(p);
      } else if (distances[i]) {
        buckets.Update(p, posteriors[p]);
      }
    }
    tau += static_cast<std::int64_t>(take);

    if (options_.use_ulb && tau >= next_ulb) {
      arms.RunUlb(tau, k_count);
      next_ulb = tau + kUlbPeriod;
      for (std::size_t p = 0; p < num_pairs; ++p) {
        if (!arms.live(p) && buckets.contains(p)) buckets.Erase(p);
      }
    }
  }

  // --- Final ranking (Line 15): lowest posterior means win. Exhausted
  // pairs are ranked by their exact score. One exhausted by failed pulls
  // alone has no score: no Bernoulli trial was drawn for it, so its
  // posterior mean is still the prior's.
  std::vector<double> scores(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    scores[p] = arms.exhausted(p) && arms.pulls(p) > 0 ? arms.mean(p)
                                                       : posteriors[p].Mean();
  }
  SelectionResult result = arms.Finish(scores, k_count);
  RecordBanditObs(tau, posteriors, result);
  return result;
}

}  // namespace tmerge::merge
