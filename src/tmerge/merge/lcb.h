#ifndef TMERGE_MERGE_LCB_H_
#define TMERGE_MERGE_LCB_H_

#include <cstdint>
#include <string>

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

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_LCB_H_
