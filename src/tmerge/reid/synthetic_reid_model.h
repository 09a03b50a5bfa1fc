#ifndef TMERGE_REID_SYNTHETIC_REID_MODEL_H_
#define TMERGE_REID_SYNTHETIC_REID_MODEL_H_

#include <cstdint>
#include <unordered_map>

#include "tmerge/reid/reid_model.h"
#include "tmerge/sim/world.h"

namespace tmerge::reid {

/// Noise model of the synthetic ReID embedder.
struct ReidModelConfig {
  /// Baseline per-dimension observation noise stddev.
  double observation_noise = 0.20;
  /// Extra noise proportional to (1 - visibility): occluded crops embed
  /// poorly, exactly why fully-occluded frames were dropped upstream.
  double occlusion_noise_scale = 0.7;
  /// Extra noise added when the crop was captured under glare.
  double glare_noise = 0.6;
  /// Multiplier on the distance normalization scale. Values above 1
  /// compress normalized distances toward 0, which matches real ReID
  /// deployments (the normalizer must cover the worst-case distance, so
  /// typical distances are small) and keeps the Bernoulli trials of
  /// Algorithm 2 in the low-variance regime.
  double normalization_headroom = 1.0;
};

/// Stand-in for the paper's OSNet ReID model. `Embed` maps a crop to the GT
/// object's latent appearance vector plus deterministic observation noise,
/// reproducing the only property the merging algorithms rely on: feature
/// distances between same-object crops are stochastically smaller than
/// between different objects, with overlap controlled by the noise level
/// and the appearance-space cluster structure.
///
/// Embedding is deterministic per crop, so repeated extraction of the same
/// BBox yields the same feature — making the paper's feature-reuse
/// optimization meaningful. Each crop's noise comes from its own
/// core::KeyedStream, keyed by SplitMix64(SplitMix64(model seed) ^
/// noise_seed): per dimension, the latent value plus noise_stddev times a
/// ziggurat normal, in dimension order. The noise stddev grows with
/// occlusion and glare (ReidModelConfig). No draw goes through <random>,
/// so features do not depend on a standard library's distribution
/// algorithms.
///
/// This class models only *what* the network computes; *how long* it takes
/// is charged separately via InferenceMeter (cost_model.h).
class SyntheticReidModel : public ReidModel {
 public:
  /// Builds the model's appearance registry from the video's ground truth.
  SyntheticReidModel(const sim::SyntheticVideo& video,
                     const ReidModelConfig& config, std::uint64_t seed);

  /// Embeds one crop. Deterministic; does not charge inference cost.
  FeatureVector Embed(const CropRef& crop) const override;

  /// Scale used to normalize feature distances into [0, 1] (the paper's
  /// d-tilde): an upper quantile of the between-object distance
  /// distribution, derived from the appearance space geometry.
  double normalization_scale() const override { return normalization_scale_; }

  std::size_t feature_dim() const override { return feature_dim_; }

 private:
  ReidModelConfig config_;
  /// SplitMix64(model seed): the first of the two rounds that key each
  /// crop's noise stream.
  std::uint64_t noise_key_;
  std::size_t feature_dim_;
  double normalization_scale_;
  std::unordered_map<sim::GtObjectId, sim::AppearanceVector> appearances_;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_SYNTHETIC_REID_MODEL_H_
