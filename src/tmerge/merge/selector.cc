#include "tmerge/merge/selector.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tmerge/core/status.h"
#include "tmerge/obs/metrics.h"

namespace tmerge::merge {

void WorkTally::AddWindow(const SelectionResult& result,
                          std::int64_t window_pairs) {
  usage += result.usage;
  simulated_seconds += result.simulated_seconds;
  ++windows;
  pairs += window_pairs;
  box_pairs_evaluated += result.box_pairs_evaluated;
  failed_pulls += result.failed_pulls;
  reid_retries += result.reid_retries;
  if (result.degraded) ++degraded_windows;
}

void WorkTally::Add(const WorkTally& other) {
  usage += other.usage;
  simulated_seconds += other.simulated_seconds;
  windows += other.windows;
  pairs += other.pairs;
  box_pairs_evaluated += other.box_pairs_evaluated;
  failed_pulls += other.failed_pulls;
  reid_retries += other.reid_retries;
  degraded_windows += other.degraded_windows;
}

void WorkTally::MeanOver(int trials) {
  TMERGE_CHECK(trials > 0);
  for (std::int64_t* counter :
       {&usage.single_inferences, &usage.batched_crops, &usage.batch_calls,
        &usage.distance_evals, &usage.cache_hits, &usage.failed_embeds,
        &usage.gate_accepted, &usage.gate_rejected, &usage.gate_ambiguous,
        &windows, &pairs, &box_pairs_evaluated, &failed_pulls, &reid_retries,
        &degraded_windows}) {
    *counter = (*counter + trials / 2) / trials;
  }
  simulated_seconds /= trials;
}

std::uint64_t WindowSeed(std::uint64_t seed, std::int32_t window_index) {
  return seed + 1009 * (window_index + 1);
}

void PublishWindowObs(const SelectionResult& result,
                      std::int64_t window_pairs) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& windows = registry.GetCounter("evaluate.windows");
  static obs::Counter& pairs = registry.GetCounter("evaluate.pairs_scanned");
  static obs::Counter& candidates =
      registry.GetCounter("evaluate.candidates_emitted");
  static obs::Counter& box_pairs =
      registry.GetCounter("evaluate.box_pairs_evaluated");
  static obs::Counter& cache_hits = registry.GetCounter("reid.cache.hits");
  static obs::Counter& cache_misses =
      registry.GetCounter("reid.cache.misses");
  static obs::Counter& single =
      registry.GetCounter("reid.inferences.single");
  static obs::Counter& batched_crops =
      registry.GetCounter("reid.inferences.batched_crops");
  static obs::Counter& batch_calls = registry.GetCounter("reid.batch_calls");
  static obs::Counter& distances =
      registry.GetCounter("reid.distance_evals");
  static obs::Counter& gate_accepted =
      registry.GetCounter("gate.accepted");
  static obs::Counter& gate_rejected =
      registry.GetCounter("gate.rejected");
  static obs::Counter& gate_ambiguous =
      registry.GetCounter("gate.ambiguous");
  static obs::Counter& failed_pulls =
      registry.GetCounter("pipeline.failed_pulls");
  static obs::Counter& degraded =
      registry.GetCounter("pipeline.degraded_windows");
  windows.Add();
  pairs.Add(window_pairs);
  candidates.Add(static_cast<std::int64_t>(result.candidates.size()));
  box_pairs.Add(result.box_pairs_evaluated);
  cache_hits.Add(result.usage.cache_hits);
  // Every cache miss is exactly one embedded crop (single or batched).
  cache_misses.Add(result.usage.TotalInferences());
  single.Add(result.usage.single_inferences);
  batched_crops.Add(result.usage.batched_crops);
  batch_calls.Add(result.usage.batch_calls);
  distances.Add(result.usage.distance_evals);
  gate_accepted.Add(result.usage.gate_accepted);
  gate_rejected.Add(result.usage.gate_rejected);
  gate_ambiguous.Add(result.usage.gate_ambiguous);
  failed_pulls.Add(result.failed_pulls);
  if (result.degraded) degraded.Add();
}

std::size_t TopKCount(double k_fraction, std::size_t num_pairs) {
  TMERGE_CHECK(k_fraction >= 0.0 && k_fraction <= 1.0);
  auto k = static_cast<std::size_t>(
      std::ceil(k_fraction * static_cast<double>(num_pairs)));
  return std::min(k, num_pairs);
}

namespace internal {

std::vector<metrics::TrackPairKey> TopKByScore(
    const PairContext& context, const std::vector<double>& scores,
    std::size_t k) {
  TMERGE_CHECK(scores.size() == context.num_pairs());
  k = std::min(k, scores.size());
  if (k == 0) return {};
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // (score, index) is a strict total order — no two elements ever compare
  // equivalent — so partitioning at k and sorting only the top-k prefix
  // yields exactly the first k elements a full sort would: O(n + k log k)
  // instead of O(n log n), and K defaults to 5% of the pairs.
  const auto less = [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  };
  if (k < order.size()) {
    std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                     less);
    std::sort(order.begin(), order.begin() + k, less);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  std::vector<metrics::TrackPairKey> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(context.pair(order[i]));
  return out;
}

std::int64_t ScaledBudget(std::int64_t tau_max, double scale) {
  TMERGE_CHECK(scale > 0.0);
  if (scale == 1.0) return tau_max;  // Exact pass-through, no rounding.
  auto scaled = static_cast<std::int64_t>(
      std::llround(static_cast<double>(tau_max) * scale));
  return std::max<std::int64_t>(scaled, 1);
}

}  // namespace internal
}  // namespace tmerge::merge
