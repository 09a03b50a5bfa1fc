#ifndef TMERGE_MERGE_TMERGE_H_
#define TMERGE_MERGE_TMERGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/core/rng.h"
#include "tmerge/merge/selector.h"

namespace tmerge::merge {

/// TMerge hyper-parameters (paper §IV, defaults per §V-B).
struct TMergeOptions {
  /// Maximum sampling iterations tau_max. In batched mode the budget
  /// counts BBox-pair evaluations, so runs are comparable across batch
  /// sizes.
  std::int64_t tau_max = 10000;
  /// Enables BetaInit (Algorithm 3): spatially close track pairs start
  /// with a lower-mean Beta prior.
  bool use_beta_init = true;
  /// BetaInit spatial-distance threshold thr_S in pixels.
  double thr_s = 200.0;
  /// Enables ULB pruning (Algorithm 4).
  bool use_ulb = true;
};

/// The paper's contribution (Algorithm 2): Thompson sampling over track
/// pairs. Each pair carries a Beta(S, F) posterior on its normalized score;
/// every iteration draws a theta per live pair, evaluates one fresh BBox
/// pair of the arg-min pair with the ReID model, runs a Bernoulli(d~)
/// trial, and updates the posterior. Pairs that share a posterior share
/// one draw of their minimum (internal::PosteriorBuckets), which has the
/// law of the per-pair draws. BetaInit (Algorithm 3) warm-starts the
/// priors from spatial proximity; ULB (Algorithm 4) prunes pairs whose
/// membership in the top-K is already decided by Hoeffding bounds.
/// batch_size > 1 in SelectorOptions yields TMerge-B: the B smallest
/// Thompson draws are evaluated per round with one batched inference.
class TMergeSelector : public CandidateSelector {
 public:
  explicit TMergeSelector(const TMergeOptions& tmerge_options = TMergeOptions())
      : options_(tmerge_options) {}

  SelectionResult Select(const PairContext& context,
                         const reid::ReidModel& model,
                         reid::FeatureCache& cache,
                         const SelectorOptions& options) override;

  std::string name() const override { return "TMerge"; }

 private:
  TMergeOptions options_;
};

namespace internal {

/// TMerge's live arms grouped into buckets by posterior Beta(S, F). Every
/// TMerge shape is a whole number (the Beta(1, 1) prior, BetaInit's F + 1
/// and Bernoulli counts), so the key is exact, and a Thompson round costs
/// O(buckets) instead of O(arms):
///
///   - A bucket of one arm draws its theta ~ Beta(S, F) as before.
///   - A bucket of m arms draws the minimum of its m thetas at once, by
///     inversion: with G the Beta(S, F) CDF and V uniform on (0, 1], the
///     minimum is G^-1(1 - V^(1/m)). S = 1 and F = 1 have closed forms;
///     other shapes invert G, the upper binomial tail
///     P(Bin(S + F - 1, x) >= S), by safeguarded Newton. A bucket whose
///     level 1 - V^(1/m) is not below G(best so far) cannot win and costs
///     one tail evaluation.
///   - The winner within a bucket is uniform over its arms. The arms are
///     exchangeable, so the round has the law of the per-arm arg-min.
///   - TMerge-B takes the B smallest thetas: each bucket yields successive
///     order statistics (after j at level q, the next is at level
///     1 - (1 - q) V^(1/(m - j))) while they beat the current B-th
///     smallest.
///
/// Buckets are walked singletons first, then the closed-form shapes, then
/// the rest, each in ascending (S, F) order, so the draws a round makes
/// depend on the data alone.
class PosteriorBuckets {
 public:
  explicit PosteriorBuckets(std::size_t num_arms);

  /// Files `arm`, which must be absent, under its posterior's (S, F).
  void Insert(std::size_t arm, const core::BetaPosterior& posterior);
  /// Removes `arm`, which must be present.
  void Erase(std::size_t arm);
  /// Refiles `arm`, which must be present, under its updated posterior.
  void Update(std::size_t arm, const core::BetaPosterior& posterior);
  bool contains(std::size_t arm) const { return slot_of_[arm] != kNone; }
  /// Arms in all buckets.
  std::size_t size() const { return size_; }

  /// One Thompson round: fills `chosen` with the `take` arms (1 <= take
  /// <= size()) whose thetas would be smallest, in ascending theta order.
  void DrawRound(std::size_t take, core::Rng& rng,
                 std::vector<std::size_t>& chosen);
  /// The last round's i-th smallest theta, the one behind chosen[i].
  double theta(std::size_t i) const { return top_[i].first; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// S << 32 | F; ascending keys order buckets by (S, F).
  static std::uint64_t Key(const core::BetaPosterior& posterior);

  struct Bucket {
    std::uint64_t key = 0;
    core::BetaPosterior posterior;
    /// ln C(S + F - 1, S), the scale of the binomial tail G; computed when
    /// a round first tests the bucket against it, since most buckets
    /// (singletons and closed forms) never need it.
    double log_choose = 0.0;
    bool has_log_choose = false;
    std::vector<std::uint32_t> arms;
    /// Arms of this bucket already chosen in the current round.
    std::uint32_t picked = 0;
  };

  /// Draws the order statistics of a bucket of two or more arms into
  /// `top_` while they beat the current `take`-th smallest theta.
  void DrawBucket(std::uint32_t slot, std::size_t take, core::Rng& rng);
  /// Adds a value to the round's `take` smallest. True while a larger
  /// value of the same bucket could still join them.
  bool Offer(double draw, std::uint32_t slot, std::size_t take);

  std::vector<Bucket> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// (key, slot) of every non-empty bucket, ascending by key.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> index_in_slot_;
  std::size_t size_ = 0;
  /// The round's smallest thetas so far, a max-heap of (theta, slot).
  std::vector<std::pair<double, std::uint32_t>> top_;
  /// The round's buckets of two or more arms, in key order.
  std::vector<std::uint32_t> shared_;
};

}  // namespace internal

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_TMERGE_H_
