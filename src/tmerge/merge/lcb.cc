#include "tmerge/merge/lcb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tmerge/core/status.h"
#include "tmerge/merge/bandit.h"

namespace tmerge::merge {

namespace internal {

void PullCountBuckets::Insert(std::size_t arm, std::int64_t pulls,
                              double mean) {
  // Counts are unique, so (pulls, 0) sorts first among the entries of
  // `pulls`.
  auto it = std::lower_bound(order_.begin(), order_.end(),
                             std::make_pair(pulls, std::uint32_t{0}));
  std::uint32_t slot;
  if (it != order_.end() && it->first == pulls) {
    slot = it->second;
  } else {
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slots_[slot].pulls = pulls;
    order_.insert(it, {pulls, slot});
  }
  // Bucket 0 orders by index alone.
  const std::pair<double, std::uint32_t> key(pulls > 0 ? mean : 0.0,
                                             static_cast<std::uint32_t>(arm));
  std::vector<std::pair<double, std::uint32_t>>& arms = slots_[slot].arms;
  arms.insert(std::lower_bound(arms.begin(), arms.end(), key), key);
}

std::size_t PullCountBuckets::PopBest(double two_log_tau) {
  TMERGE_CHECK(!order_.empty());
  // Counts ascend, so a bucket 0 comes first and its head wins outright.
  std::uint32_t best_slot = order_.front().second;
  std::size_t best_at = 0;
  if (order_.front().first > 0) {
    double best_bound = std::numeric_limits<double>::infinity();
    std::uint32_t best_arm = std::numeric_limits<std::uint32_t>::max();
    for (const auto& [pulls, slot] : order_) {
      const std::vector<std::pair<double, std::uint32_t>>& arms =
          slots_[slot].arms;
      const double radius =
          std::sqrt(two_log_tau / static_cast<double>(pulls));
      const double head = arms.front().first - radius;
      if (head > best_bound) continue;
      if (head < best_bound) {
        best_bound = head;
        best_arm = std::numeric_limits<std::uint32_t>::max();
      }
      for (std::size_t i = 0;
           i < arms.size() && arms[i].first - radius == best_bound; ++i) {
        if (arms[i].second < best_arm) {
          best_arm = arms[i].second;
          best_slot = slot;
          best_at = i;
        }
      }
    }
  }
  Bucket& bucket = slots_[best_slot];
  const std::uint32_t arm = bucket.arms[best_at].second;
  bucket.arms.erase(bucket.arms.begin() +
                    static_cast<std::ptrdiff_t>(best_at));
  if (bucket.arms.empty()) {
    order_.erase(std::lower_bound(order_.begin(), order_.end(),
                                  std::make_pair(bucket.pulls, best_slot)));
    free_slots_.push_back(best_slot);
  }
  return arm;
}

}  // namespace internal

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

  internal::PullCountBuckets buckets;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (arms.live(p)) buckets.Insert(p, arms.pulls(p), arms.mean(p));
  }
  for (; tau < tau_max; ++tau) {
    // One overhead charge per pair per round, as for a bound per pair.
    arms.meter().ChargeOverhead(static_cast<std::int64_t>(num_pairs));
    if (buckets.empty()) break;  // Everything exhausted.
    // 2 ln(tau + 1), shared by every arm's radius this round.
    const double two_log_tau = 2.0 * std::log(static_cast<double>(tau + 1));
    std::size_t best_pair = buckets.PopBest(two_log_tau);
    arms.Pull({&best_pair, 1});
    if (arms.live(best_pair)) {
      buckets.Insert(best_pair, arms.pulls(best_pair), arms.mean(best_pair));
    }
  }

  std::vector<double> scores(num_pairs, 1.0);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (arms.pulls(p) > 0) scores[p] = arms.mean(p);
  }
  return arms.Finish(scores, TopKCount(options.k_fraction, num_pairs));
}

}  // namespace tmerge::merge
