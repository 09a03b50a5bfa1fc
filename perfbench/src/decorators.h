#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tmerge/merge/selector.h"
#include "tmerge/reid/reid_model.h"

namespace perfbench {

/// ReidModel that forwards every call to `inner` and records a span around
/// Embed (which TryEmbed also reaches). Outputs are the inner model's, bit
/// for bit.
class TracedReidModel : public tmerge::reid::ReidModel {
 public:
  TracedReidModel(std::shared_ptr<const tmerge::reid::ReidModel> inner,
                  int layer)
      : inner_(std::move(inner)), layer_(layer) {}

  tmerge::reid::FeatureVector Embed(
      const tmerge::reid::CropRef& crop) const override;
  double normalization_scale() const override {
    return inner_->normalization_scale();
  }
  std::size_t feature_dim() const override { return inner_->feature_dim(); }

  const std::shared_ptr<const tmerge::reid::ReidModel>& inner() const {
    return inner_;
  }

 private:
  std::shared_ptr<const tmerge::reid::ReidModel> inner_;
  int layer_;
};

/// What a TimedSelector observed across the Select calls it forwarded.
struct SelectTally {
  std::vector<double> latency_ms;
  long long calls = 0;
  long long pairs = 0;
  long long box_pairs = 0;
  long long ulb_pruned = 0;
  double simulated_seconds = 0.0;
  tmerge::reid::UsageStats usage;

  SelectTally& operator+=(const SelectTally& other);
};

/// CandidateSelector that forwards Select to `inner` and times each call
/// as its caller sees it; while the span recorder is on it also records a
/// span under `layer`. Safe to share across threads like any selector: the
/// tally is the only mutable state and it sits behind a mutex.
class TimedSelector : public tmerge::merge::CandidateSelector {
 public:
  TimedSelector(tmerge::merge::CandidateSelector& inner,
                const std::string& layer);

  tmerge::merge::SelectionResult Select(
      const tmerge::merge::PairContext& context,
      const tmerge::reid::ReidModel& model, tmerge::reid::FeatureCache& cache,
      const tmerge::merge::SelectorOptions& options) override;

  std::string name() const override { return inner_.name(); }

  /// Returns the tally so far and starts a new one.
  SelectTally TakeTally();

 private:
  tmerge::merge::CandidateSelector& inner_;
  const int layer_;
  std::mutex mutex_;
  SelectTally tally_;  // Guarded by mutex_.
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
