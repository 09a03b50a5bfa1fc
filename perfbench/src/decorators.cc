#include "decorators.h"

#include "spans.h"

namespace perfbench {

tmerge::reid::FeatureVector TracedReidModel::Embed(
    const tmerge::reid::CropRef& crop) const {
  ScopedSpan span(layer_);
  return inner_->Embed(crop);
}

SelectTally& SelectTally::operator+=(const SelectTally& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  calls += other.calls;
  pairs += other.pairs;
  box_pairs += other.box_pairs;
  ulb_pruned += other.ulb_pruned;
  simulated_seconds += other.simulated_seconds;
  usage += other.usage;
  return *this;
}

TimedSelector::TimedSelector(tmerge::merge::CandidateSelector& inner,
                             const std::string& layer)
    : inner_(inner), layer_(SpanRecorder::Get().Layer(layer)) {}

tmerge::merge::SelectionResult TimedSelector::Select(
    const tmerge::merge::PairContext& context,
    const tmerge::reid::ReidModel& model, tmerge::reid::FeatureCache& cache,
    const tmerge::merge::SelectorOptions& options) {
  tmerge::merge::SelectionResult result;
  long long start_ns = NowNs();
  {
    ScopedSpan span(layer_);
    result = inner_.Select(context, model, cache, options);
  }
  long long end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  tally_.latency_ms.push_back(1e-6 * static_cast<double>(end_ns - start_ns));
  ++tally_.calls;
  tally_.pairs += static_cast<long long>(context.num_pairs());
  tally_.box_pairs += result.box_pairs_evaluated;
  tally_.ulb_pruned += result.ulb_pruned_in + result.ulb_pruned_out;
  tally_.simulated_seconds += result.simulated_seconds;
  tally_.usage += result.usage;
  return result;
}

SelectTally TimedSelector::TakeTally() {
  std::lock_guard<std::mutex> lock(mutex_);
  SelectTally taken = std::move(tally_);
  tally_ = SelectTally();
  return taken;
}

}  // namespace perfbench
