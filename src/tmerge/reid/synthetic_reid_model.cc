#include "tmerge/reid/synthetic_reid_model.h"

#include <algorithm>
#include <cmath>

#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"
#include "tmerge/reid/distance_kernels.h"

namespace tmerge::reid {

SyntheticReidModel::SyntheticReidModel(const sim::SyntheticVideo& video,
                                       const ReidModelConfig& config,
                                       std::uint64_t seed)
    : config_(config), noise_key_(core::SplitMix64(seed)), feature_dim_(16) {
  for (const auto& track : video.tracks) {
    TMERGE_CHECK(!track.appearance.empty());
    appearances_.emplace(track.id, track.appearance);
    feature_dim_ = track.appearance.size();
  }

  // Normalization scale: the largest between-object latent distance plus a
  // noise margin, so that normalized distances rarely clip at 1 but the
  // full [0, 1] range is used. Falls back to a noise-only scale for videos
  // with fewer than two objects.
  // Squared-distance fast path: a max-reduction commutes with the (monotone,
  // correctly-rounded) sqrt, so taking the max of squared distances and one
  // final sqrt is bit-identical to maxing sim::EuclideanDistance per pair —
  // and skips O(n^2) sqrts. This is the ranking-safe use of
  // kernels::SquaredDistance; mean-of-distance scores are not (DESIGN.md
  // "Memory layout & kernels").
  double max_latent_sq = 0.0;
  std::vector<const sim::AppearanceVector*> latents;
  latents.reserve(appearances_.size());
  for (const auto& [id, vec] : appearances_) latents.push_back(&vec);
  for (std::size_t i = 0; i < latents.size(); ++i) {
    for (std::size_t j = i + 1; j < latents.size(); ++j) {
      max_latent_sq = std::max(
          max_latent_sq,
          kernels::SquaredDistance(latents[i]->data(), latents[j]->data(),
                                   latents[i]->size()));
    }
  }
  double max_latent = std::sqrt(max_latent_sq);
  double noise_margin =
      3.0 * config_.observation_noise * std::sqrt(2.0 * feature_dim_);
  normalization_scale_ =
      std::max(1e-6, (max_latent + noise_margin) *
                         config_.normalization_headroom);
}

FeatureVector SyntheticReidModel::Embed(const CropRef& crop) const {
  // The second SplitMix64 round of the key (noise_key_ holds the first):
  // MOT-format input numbers its crops' noise seeds 1, 2, 3, ..., and the
  // round keeps those adjacent keys' streams unrelated.
  core::KeyedStream noise(core::SplitMix64(noise_key_ ^ crop.noise_seed));
  const double noise_stddev =
      config_.observation_noise +
      config_.occlusion_noise_scale * (1.0 - std::clamp(crop.visibility, 0.0, 1.0)) +
      (crop.glared ? config_.glare_noise : 0.0);

  FeatureVector feature(feature_dim_);
  auto it = crop.gt_id == sim::kNoObject ? appearances_.end()
                                         : appearances_.find(crop.gt_id);
  if (it != appearances_.end()) {
    const sim::AppearanceVector& latent = it->second;
    for (std::size_t i = 0; i < feature_dim_; ++i) {
      feature[i] = latent[i] + noise_stddev * noise.StandardNormal();
    }
  } else {
    // False positive (or unknown object): an arbitrary background embedding,
    // stable for this crop because the stream is keyed by the crop.
    for (std::size_t i = 0; i < feature_dim_; ++i) {
      const double background = 1.2 * noise.StandardNormal();
      feature[i] = background + noise_stddev * noise.StandardNormal();
    }
  }
  return feature;
}

}  // namespace tmerge::reid
