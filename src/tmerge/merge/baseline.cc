#include "tmerge/merge/baseline.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "tmerge/core/mutex.h"
#include "tmerge/reid/distance_kernels.h"

namespace tmerge::merge {

SelectionResult BaselineSelector::Select(const PairContext& context,
                                         const reid::ReidModel& model,
                                         reid::FeatureCache& cache,
                                         const SelectorOptions& options) {
  reid::InferenceMeter meter(options.cost_model);
  const bool batched = options.batch_size > 1;
  const std::size_t num_pairs = context.num_pairs();

  SelectionResult result;
  // Computed on this call's stack — EvaluateDataset shares one selector
  // across worker threads, so members must stay read-only during Select.
  std::vector<double> scores(num_pairs, 0.0);

  // Embed every involved crop, gathering raw arena pointers. Batched mode
  // groups `batch_size` track pairs per GPU call (the paper's B = track
  // pairs jointly evaluated).
  auto embed_track = [&](const std::vector<reid::CropRef>& crops,
                         std::vector<const double*>& out) {
    out.clear();
    out.reserve(crops.size());
    for (const auto& crop : crops) {
      out.push_back(cache.GetOrEmbed(crop, model, meter).data);
    }
  };
  auto embed_tracks_batched = [&](std::size_t first_pair,
                                  std::size_t last_pair) {
    std::vector<reid::CropRef> crops;
    for (std::size_t p = first_pair; p < last_pair; ++p) {
      const auto& crops_a = context.CropsA(p);
      const auto& crops_b = context.CropsB(p);
      crops.insert(crops.end(), crops_a.begin(), crops_a.end());
      crops.insert(crops.end(), crops_b.begin(), crops_b.end());
    }
    cache.GetOrEmbedBatch(crops, model, meter);
  };

  // Scratch reused across pairs: feature pointers per track and the
  // B-side features in column-major order.
  std::vector<const double*> features_a, features_b;
  std::vector<double> columns;
  const std::size_t dim = model.feature_dim();
  const double scale = model.normalization_scale();

  std::size_t chunk = batched ? static_cast<std::size_t>(options.batch_size)
                              : num_pairs;
  if (chunk == 0) chunk = 1;

  for (std::size_t begin = 0; begin < num_pairs; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, num_pairs);
    if (batched) embed_tracks_batched(begin, end);

    for (std::size_t p = begin; p < end; ++p) {
      embed_track(context.CropsA(p), features_a);
      embed_track(context.CropsB(p), features_b);
      // The B-side features are gathered into columns once per pair;
      // one fused sweep per fa then adds its normalized distances in the
      // same fa-outer / fb-inner order as pairwise NormalizedDistance —
      // bit-identical by construction (reid/distance_kernels.h).
      const std::size_t n_b = features_b.size();
      columns.resize(n_b * dim);
      reid::kernels::GatherColumns(features_b.data(), n_b, dim,
                                   columns.data());
      double sum = 0.0;
      for (const double* fa : features_a) {
        sum = reid::kernels::SumNormalizedDistances(fa, columns.data(), n_b,
                                                    dim, scale, sum);
      }
      const auto count = static_cast<std::int64_t>(features_a.size() *
                                                   features_b.size());
      if (batched) {
        meter.ChargeDistanceBatched(count);
      } else {
        meter.ChargeDistance(count);
      }
      result.box_pairs_evaluated += count;
      scores[p] = count > 0 ? sum / static_cast<double>(count) : 1.0;
    }
  }

  result.candidates = internal::TopKByScore(
      context, scores, TopKCount(options.k_fraction, num_pairs));
  {
    core::MutexLock lock(mutex_);
    last_scores_ = std::move(scores);
  }
  result.simulated_seconds = meter.elapsed_seconds();
  result.usage = meter.stats();
  return result;
}

}  // namespace tmerge::merge
