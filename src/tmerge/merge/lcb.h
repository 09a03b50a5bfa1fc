#ifndef TMERGE_MERGE_LCB_H_
#define TMERGE_MERGE_LCB_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tmerge/merge/selector.h"

namespace tmerge::merge {

/// LCB comparator (paper §V-B): UCB1 adapted to minimization. Each
/// iteration computes the Lower Confidence Bound s'_ij - sqrt(2 ln tau /
/// n_ij) of every pair, samples one BBox pair from the arg-min pair,
/// and re-estimates. Deterministic arm choice makes iterations strictly
/// sequential, which is why its batched variant (batch_size > 1 batches
/// only the two crops of the chosen pair) gains little from the GPU —
/// the contrast the paper draws in §V-D.
class LcbSelector : public CandidateSelector {
 public:
  /// `tau_max`: total sampling iterations (including the one initial pull
  /// per pair that seeds the bounds).
  explicit LcbSelector(std::int64_t tau_max);

  SelectionResult Select(const PairContext& context,
                         const reid::ReidModel& model,
                         reid::FeatureCache& cache,
                         const SelectorOptions& options) override;

  std::string name() const override { return "LCB"; }

 private:
  std::int64_t tau_max_;
};

namespace internal {

/// LCB's live arms in buckets by successful pull count n, so that a round
/// costs O(distinct counts) instead of O(arms). The arms of a bucket share
/// the radius sqrt(2 ln(tau + 1) / n), computed once per bucket by the
/// expression the per-arm bound used, so every bound keeps its bits:
///
///   - A bucket keeps its arms in (mean, index) order. A bound mean -
///     radius never falls as the mean rises, so the bucket's head holds its
///     lowest bound, and a round compares the heads.
///   - Rounding can give different means the same bound. The round walks a
///     bucket past its head while the bound still equals the best, and the
///     lowest index among all tied arms, in any bucket, wins: the arm the
///     per-arm scan with a strict `<` picks.
///   - Bucket 0 holds arms whose initial pull failed (an injected fault).
///     Their bound is vacuously -inf, maximally optimistic, so the lowest
///     index there wins outright; their means are ignored.
///
/// Thread-confined: one index per Select call.
class PullCountBuckets {
 public:
  /// Files `arm`, which must be absent, under its successful pull count
  /// and mean sampled distance.
  void Insert(std::size_t arm, std::int64_t pulls, double mean);
  bool empty() const { return order_.empty(); }

  /// Removes and returns the arm with the lowest bound mean - sqrt(
  /// two_log_tau / n), the lowest index among ties. Must not be empty().
  std::size_t PopBest(double two_log_tau);

 private:
  struct Bucket {
    std::int64_t pulls = 0;
    /// (mean, arm), ascending.
    std::vector<std::pair<double, std::uint32_t>> arms;
  };

  std::vector<Bucket> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// (pulls, slot) of every non-empty bucket, ascending by pulls.
  std::vector<std::pair<std::int64_t, std::uint32_t>> order_;
};

}  // namespace internal

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_LCB_H_
