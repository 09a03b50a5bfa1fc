#ifndef TMERGE_MERGE_BANDIT_H_
#define TMERGE_MERGE_BANDIT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tmerge/core/rng.h"
#include "tmerge/merge/pair_store.h"
#include "tmerge/merge/selector.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/reid_guard.h"
#include "tmerge/reid/reid_model.h"

namespace tmerge::merge::internal {

/// Arms ULB decided in one pass.
struct UlbPruned {
  std::int64_t in = 0;
  std::int64_t out = 0;
};

/// Algorithm 4's decision once every arm's Hoeffding bounds are known:
/// clears `live[p]` of each live arm with `pulls[p] > 0` whose membership
/// in the top `k` the bounds already decide, and counts it. Pruned in: fewer
/// than k other arms have a lower bound below p's upper. Pruned out: at
/// least k arms have an upper bound below p's lower. Linear time by order
/// statistics; `scratch` is reused storage. ArmTable::RunUlb is the caller.
UlbPruned DecideUlb(std::span<const double> lower,
                    std::span<const double> upper,
                    std::span<const std::int64_t> pulls,
                    std::span<std::uint8_t> live, std::size_t k,
                    std::vector<double>& scratch);

/// One window's arms for the bandit selectors, LCB and TMerge, which differ
/// only in how they pick the next arm. An arm is a track pair: its
/// BoxPairSampler, the sum of its sampled distances, its successful pulls
/// and a live byte, stored as parallel arrays. The table also owns the
/// probe's per-window state — the InferenceMeter, the ReidGuard and the
/// selector's core::Rng — and the SelectionResult counters. The selectors
/// keep their own scores: LCB its bound, TMerge its Beta posteriors.
///
/// The failed-pull rule lives here: a pull whose features cannot be
/// fetched spends its budget, its cell and the charged cost, but leaves the
/// arm's sum and pull count alone and reports no distance, so no posterior
/// sees it (DESIGN.md "Fault model & degraded mode").
///
/// Thread-confined: one table per Select call.
class ArmTable {
 public:
  /// One arm per pair of `context`, live unless its grid is empty. The rng
  /// is seeded `options.seed ^ salt`; each selector has its own salt.
  ArmTable(const PairContext& context, const reid::ReidModel& model,
           reid::FeatureCache& cache, const SelectorOptions& options,
           std::uint64_t salt);

  /// Live arms may be pulled: their grid has unsampled cells and ULB has
  /// not decided them.
  bool live(std::size_t arm) const { return live_[arm] != 0; }
  /// True once every cell of the arm's grid has been drawn; its mean is
  /// then the pair's exact score.
  bool exhausted(std::size_t arm) const {
    return samplers_[arm].Exhausted();
  }
  std::int64_t pulls(std::size_t arm) const { return pulls_[arm]; }
  /// Mean sampled distance; 0.5 before the first successful pull.
  double mean(std::size_t arm) const {
    return pulls_[arm] > 0 ? sum_[arm] / static_cast<double>(pulls_[arm])
                           : 0.5;
  }

  core::Rng& rng() { return rng_; }
  reid::InferenceMeter& meter() { return meter_; }

  /// Pulls one fresh BBox pair of each of `arms` (live and distinct) as one
  /// round. It draws every cell first, clearing the live byte of each arm
  /// it exhausts; with batch_size > 1 it prefetches the round's crops in
  /// one batched call. Then it finishes the pulls in order: both features,
  /// the normalized distance and its charge, and the counters. Returns one
  /// entry per arm, in order: its distance, or nullopt for a failed pull.
  /// The reference is valid until the next call.
  const std::vector<std::optional<double>>& Pull(
      std::span<const std::size_t> arms);

  /// Algorithm 4 (ULB) at iteration `tau`: clears the live byte of every
  /// live, sampled arm whose membership in the top `k` Hoeffding bounds
  /// already decide, counting it as pruned in or out, and charges one
  /// overhead operation per arm. Exhausted arms have zero-width bounds,
  /// never-sampled ones vacuous bounds.
  void RunUlb(std::int64_t tau, std::size_t k);

  /// The window's result: the `k` pairs with the lowest `scores` (one per
  /// arm), the counters, and the probe's simulated time, usage, retries
  /// and degraded flag. Moves the counters out: call it once, last.
  SelectionResult Finish(const std::vector<double>& scores, std::size_t k);

 private:
  const PairContext& context_;
  const reid::ReidModel& model_;
  reid::InferenceMeter meter_;
  reid::ReidGuard guard_;
  core::Rng rng_;
  const bool batched_;
  std::vector<BoxPairSampler> samplers_;
  std::vector<double> sum_;
  std::vector<std::int64_t> pulls_;
  std::vector<std::uint8_t> live_;
  /// Round buffers: the two crops of each drawn cell, and each outcome.
  std::vector<reid::CropRef> crops_;
  std::vector<std::optional<double>> distances_;
  /// RunUlb's bounds per arm, and the copy its order statistics permute.
  std::vector<double> lower_of_;
  std::vector<double> upper_of_;
  std::vector<double> scratch_;
  SelectionResult result_;
};

}  // namespace tmerge::merge::internal

#endif  // TMERGE_MERGE_BANDIT_H_
