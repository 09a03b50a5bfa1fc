#ifndef TMERGE_REID_REID_MODEL_H_
#define TMERGE_REID_REID_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "tmerge/core/status.h"
#include "tmerge/reid/distance_kernels.h"
#include "tmerge/reid/feature.h"

namespace tmerge::reid {

/// Abstract ReID embedder consumed by the trackers and merging algorithms.
/// Two implementations ship with the library:
///   - SyntheticReidModel: the simulation stand-in for OSNet (see
///     synthetic_reid_model.h), used by everything synthetic;
///   - PrecomputedReidModel (below): features computed offline by a real
///     ReID network and loaded by detection id — the adoption path for
///     real tracker output ingested via tmerge::io.
///
/// Embedding cost is charged separately through InferenceMeter; Embed
/// itself must be deterministic per crop so the feature-reuse optimization
/// is sound.
///
/// Concurrency: the parallel dataset paths (merge::EvaluateDataset,
/// merge::PrepareDataset) call Embed / NormalizedDistance on one model
/// object from several threads, so implementations must be free of
/// mutable state — every method here is const and must stay logically
/// const (no caches, no shared RNG). Both shipped implementations comply:
/// SyntheticReidModel derives a fresh local RNG per crop and
/// PrecomputedReidModel is a read-only table lookup.
class ReidModel {
 public:
  virtual ~ReidModel() = default;

  /// Embeds one crop. Deterministic per crop. Infallible: a production
  /// serving stack cannot assume this, which is what TryEmbed models.
  virtual FeatureVector Embed(const CropRef& crop) const = 0;

  /// Fallible embedding path for fault-tolerant callers: identical to
  /// Embed except that the "reid.embed" failpoint (fault/failpoint.h) may
  /// inject a transient Unavailable error, keyed by the crop's detection
  /// id mixed with `salt` (retry attempts pass distinct salts so each
  /// attempt draws an independent verdict). With no failpoint armed this
  /// is exactly Embed, bit for bit.
  /// Applies to every implementation; thread-safe like Embed.
  core::Result<FeatureVector> TryEmbed(const CropRef& crop,
                                       std::uint64_t salt = 0) const;

  /// Scale that maps raw feature distances into the paper's normalized
  /// d-tilde in [0, 1].
  virtual double normalization_scale() const = 0;

  /// Feature dimensionality.
  virtual std::size_t feature_dim() const = 0;

  /// Normalized distance between two features, clamped to [0, 1].
  double NormalizedDistance(const FeatureVector& a,
                            const FeatureVector& b) const {
    double d = FeatureDistance(a, b) / normalization_scale();
    return std::clamp(d, 0.0, 1.0);
  }

  /// View overload over arena storage — the per-pair path of PS, LCB and
  /// TMerge. Same arithmetic statement for statement as the FeatureVector
  /// overload, so results are bit-identical for identical floats. BL's
  /// sweep (kernels::SumNormalizedDistances) reproduces it term for term.
  double NormalizedDistance(FeatureView a, FeatureView b) const {
    double d = kernels::Distance(a, b) / normalization_scale();
    return std::clamp(d, 0.0, 1.0);
  }
};

/// ReID model backed by an offline feature table: detection id -> feature.
/// Use together with io::ReadFeatureTable to run the merging algorithms on
/// real tracker output whose crops were embedded by an actual network.
class PrecomputedReidModel : public ReidModel {
 public:
  /// `features` maps detection ids to their embeddings (all of equal
  /// dimension); `normalization_scale` is the d_max calibration constant
  /// of the source model. Both must be non-degenerate.
  PrecomputedReidModel(
      std::unordered_map<std::uint64_t, FeatureVector> features,
      double normalization_scale);

  /// Looks the crop up by detection id; aborts if absent (a missing
  /// feature is an ingestion bug, not a runtime condition).
  FeatureVector Embed(const CropRef& crop) const override;

  double normalization_scale() const override { return normalization_scale_; }
  std::size_t feature_dim() const override { return feature_dim_; }

  /// Number of stored features.
  std::size_t size() const { return features_.size(); }

  /// True if a feature is stored for `detection_id`.
  bool Contains(std::uint64_t detection_id) const {
    return features_.contains(detection_id);
  }

 private:
  std::unordered_map<std::uint64_t, FeatureVector> features_;
  double normalization_scale_;
  std::size_t feature_dim_;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_REID_MODEL_H_
