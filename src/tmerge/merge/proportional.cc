#include "tmerge/merge/proportional.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmerge/core/status.h"

namespace tmerge::merge {

ProportionalSelector::ProportionalSelector(double eta) : eta_(eta) {
  TMERGE_CHECK(eta > 0.0 && eta <= 1.0);
}

SelectionResult ProportionalSelector::Select(
    const PairContext& context, const reid::ReidModel& model,
    reid::FeatureCache& cache, const SelectorOptions& options) {
  reid::InferenceMeter meter(options.cost_model);
  core::Rng rng(options.seed ^ 0x9051ULL);
  const bool batched = options.batch_size > 1;
  const std::size_t num_pairs = context.num_pairs();

  SelectionResult result;
  std::vector<double> scores(num_pairs, 1.0);

  // Pre-draw the sample of BBox pairs for each track pair.
  struct PairSample {
    std::vector<std::pair<std::int32_t, std::int32_t>> cells;
  };
  std::vector<PairSample> samples(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    std::int64_t total = context.BoxPairCount(p);
    if (total == 0) continue;
    auto want = static_cast<std::int64_t>(
        std::ceil(eta_ * static_cast<double>(total)));
    want = std::clamp<std::int64_t>(want, 1, total);
    BoxPairSampler sampler(context.TrackA(p).size(), context.TrackB(p).size(),
                           want);
    samples[p].cells.reserve(want);
    for (std::int64_t i = 0; i < want; ++i) {
      samples[p].cells.push_back(sampler.Sample(rng));
    }
  }

  auto batch_prefetch = [&](std::size_t first_pair, std::size_t last_pair) {
    std::vector<reid::CropRef> crops;
    for (std::size_t p = first_pair; p < last_pair; ++p) {
      const auto& crops_a = context.CropsA(p);
      const auto& crops_b = context.CropsB(p);
      for (const auto& [row, col] : samples[p].cells) {
        crops.push_back(crops_a[row]);
        crops.push_back(crops_b[col]);
      }
    }
    cache.GetOrEmbedBatch(crops, model, meter);
  };

  // Evaluate, chunking `batch_size` track pairs per GPU batch in -B mode.
  std::size_t chunk = batched ? static_cast<std::size_t>(options.batch_size)
                              : num_pairs;
  if (chunk == 0) chunk = 1;

  for (std::size_t begin = 0; begin < num_pairs; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, num_pairs);
    if (batched) batch_prefetch(begin, end);
    for (std::size_t p = begin; p < end; ++p) {
      const auto& crops_a = context.CropsA(p);
      const auto& crops_b = context.CropsB(p);
      double sum = 0.0;
      for (const auto& [row, col] : samples[p].cells) {
        reid::FeatureView fa = cache.GetOrEmbed(crops_a[row], model, meter);
        reid::FeatureView fb = cache.GetOrEmbed(crops_b[col], model, meter);
        sum += model.NormalizedDistance(fa, fb);
      }
      auto count = static_cast<std::int64_t>(samples[p].cells.size());
      if (batched) {
        meter.ChargeDistanceBatched(count);
      } else {
        meter.ChargeDistance(count);
      }
      result.box_pairs_evaluated += count;
      if (count > 0) scores[p] = sum / static_cast<double>(count);
    }
  }

  result.candidates = internal::TopKByScore(
      context, scores, TopKCount(options.k_fraction, num_pairs));
  result.simulated_seconds = meter.elapsed_seconds();
  result.usage = meter.stats();
  return result;
}

}  // namespace tmerge::merge
