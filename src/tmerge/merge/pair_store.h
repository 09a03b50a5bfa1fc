#ifndef TMERGE_MERGE_PAIR_STORE_H_
#define TMERGE_MERGE_PAIR_STORE_H_

#include <cstdint>
#include <vector>

#include "tmerge/merge/window.h"
#include "tmerge/reid/feature.h"
#include "tmerge/track/track.h"

namespace tmerge::merge {

/// Builds a reid::CropRef for a tracked box (forwarding the hidden fields
/// the synthetic embedder needs).
reid::CropRef MakeCropRef(const track::TrackedBox& box);

/// Immutable view of one window's pair set with the track data selectors
/// need: box sequences, BBox-pair counts, and BetaInit's spatial distances.
/// Shared by every selector so they all see identical inputs.
///
/// Concurrency contract: logically const after construction — every public
/// member is a read — so concurrent readers on different worker threads
/// are safe without locks, and the class intentionally carries no mutex or
/// TMERGE_GUARDED_BY annotations. The unsynchronized-reader guarantee
/// holds only while nothing mutates `result` underneath it (the pipeline
/// keeps each TrackingResult owned by one video's evaluation; see
/// DESIGN.md "Static analysis & enforced invariants").
class PairContext {
 public:
  /// Binds the window's pairs to the tracking result. `result` must
  /// outlive the context.
  PairContext(const track::TrackingResult& result,
              std::vector<metrics::TrackPairKey> pairs);

  std::size_t num_pairs() const { return pairs_.size(); }
  const std::vector<metrics::TrackPairKey>& pairs() const { return pairs_; }
  const metrics::TrackPairKey& pair(std::size_t index) const {
    return pairs_[index];
  }

  /// The two tracks of pair `index` (first = smaller TID).
  const track::Track& TrackA(std::size_t index) const;
  const track::Track& TrackB(std::size_t index) const;

  /// |B_ti x B_tj| — the number of BBox pairs of pair `index`.
  std::int64_t BoxPairCount(std::size_t index) const;

  /// The spatial distance DisS of pair `index` (paper §IV-C): Euclidean
  /// distance between the center of the temporally earlier track's last
  /// BBox and the later track's first BBox.
  double SpatialDistance(std::size_t index) const;

  /// Temporal gap in frames between the two tracks (>= 0 for admissible
  /// pairs; 0 when adjacent/overlapping).
  std::int32_t TemporalGap(std::size_t index) const;

  /// The CropRefs of the two tracks of pair `index`, precomputed at
  /// construction (CropsA(i)[r] == MakeCropRef(TrackA(i).boxes[r])).
  /// Selectors sweep these instead of re-materializing a CropRef per probe
  /// in their inner loops; tracks shared by several pairs share one vector.
  const std::vector<reid::CropRef>& CropsA(std::size_t index) const;
  const std::vector<reid::CropRef>& CropsB(std::size_t index) const;

  /// Sum of BoxPairCount over all pairs (the brute-force workload size).
  std::int64_t TotalBoxPairs() const;

  const track::TrackingResult& result() const { return *result_; }

 private:
  const track::TrackingResult* result_;
  std::vector<metrics::TrackPairKey> pairs_;
  /// Pair index -> (index of track a, index of track b) in result->tracks.
  std::vector<std::pair<std::size_t, std::size_t>> track_indices_;
  /// Track index -> that track's boxes as CropRefs (parallel to
  /// result->tracks).
  std::vector<std::vector<reid::CropRef>> track_crops_;
};

/// Tracks which BBox pairs of one track pair have been sampled, supporting
/// TMerge's without-replacement sampling. BBox pairs are identified by
/// row * cols + col over the B_ti x B_tj grid.
///
/// Thread-confined like its owning selector state: Sample mutates and
/// draws from the caller's core::Rng, whose determinism depends on a
/// single consumer (one sampler + one rng per (window, trial) evaluation).
class BoxPairSampler {
 public:
  BoxPairSampler(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols) {}
  /// A sampler whose caller will draw `draws` cells, as PS does: it records
  /// them in a grid bitmap when that takes no more bytes than the set would
  /// grow to for those draws, and otherwise sizes the set for them once.
  /// Either way the draws are those of the sampler above; drawing more than
  /// `draws` cells still works.
  BoxPairSampler(std::int64_t rows, std::int64_t cols, std::int64_t draws);

  /// Draws an unsampled (row, col) uniformly, marking it sampled. Must not
  /// be called when Exhausted().
  std::pair<std::int32_t, std::int32_t> Sample(core::Rng& rng);

  bool Exhausted() const {
    return sampled_count_ >= rows_ * cols_;
  }

  std::int64_t sampled_count() const { return sampled_count_; }

 private:
  /// Adds `cell` to sampled_; returns false if it was already there.
  bool InsertSampled(std::int64_t cell);
  bool ContainsSampled(std::int64_t cell) const;

  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t sampled_count_ = 0;
  /// Sparse record of sampled cells, used while the grid is mostly empty
  /// (rejection sampling is cheap there): an open-addressed set of cell ids
  /// with linear probing, power-of-two capacity, at most half full, and -1
  /// marking empty slots. Its size follows the sampled count, not the grid,
  /// and an insert allocates only when the table doubles.
  std::vector<std::int64_t> sampled_;
  /// The sampled cells as one bit per grid cell, used instead of sampled_
  /// when it is not empty.
  std::vector<std::uint64_t> bitmap_;
  /// Once more than half the grid is sampled, the unsampled cells are
  /// materialized here and drawn by swap-remove (O(1) per draw), keeping
  /// full-grid consumers like PS at eta = 1 linear.
  std::vector<std::int64_t> remaining_;
  bool dense_mode_ = false;
};

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_PAIR_STORE_H_
