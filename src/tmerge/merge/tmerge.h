#ifndef TMERGE_MERGE_TMERGE_H_
#define TMERGE_MERGE_TMERGE_H_

#include <cstdint>
#include <string>

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
/// trial, and updates the posterior. BetaInit (Algorithm 3) warm-starts the
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

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_TMERGE_H_
