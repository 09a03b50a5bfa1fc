#ifndef TMERGE_REID_FEATURE_STORE_H_
#define TMERGE_REID_FEATURE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tmerge/reid/feature.h"

namespace tmerge::reid {

/// Stable handle to one feature inside a FeatureStore: a dense 32-bit
/// ordinal (the append order). Handles stay valid until the store is
/// cleared or destroyed — the "handle stability" contract FeatureCache
/// documents, replacing the old unordered_map reference-stability one.
struct FeatureRef {
  static constexpr std::uint32_t kInvalidIndex = 0xFFFFFFFFu;

  std::uint32_t index = kInvalidIndex;

  bool valid() const { return index != kInvalidIndex; }

  friend bool operator==(FeatureRef a, FeatureRef b) {
    return a.index == b.index;
  }
  friend bool operator!=(FeatureRef a, FeatureRef b) { return !(a == b); }
};

/// Append-only arena owning every feature's floats for one video in
/// contiguous fixed-capacity slabs. Replaces the per-feature heap
/// allocations (one std::vector<double> per cached feature, scattered
/// across the heap by the allocator) that made the selector inner loops
/// pointer-chase: consecutive features now share cache lines, the distance
/// kernels (reid/distance_kernels.h) read straight-line memory, and a
/// whole window's worth of features fits a few slabs.
///
/// Layout: slab s holds features [s * kSlabFeatures, (s+1) * kSlabFeatures)
/// at dim_ doubles apiece. Slabs are never reallocated or moved once
/// created — growth appends a new slab — so both FeatureRef handles AND
/// the FeatureView data pointers they resolve to are stable until Clear().
/// The arena never reclaims individual slots; an "evicted" feature (a
/// fault-injection-only path, see FeatureCache) merely loses its index
/// entry and its slot is re-embedded into a fresh slot.
///
/// The feature dimension is registered by the first Append and validated
/// (TMERGE_CHECK) on every later one — this is the single validation point
/// that lets the distance kernels drop their per-call dimension check to
/// debug-only.
///
/// Concurrency: thread-confined like the FeatureCache built on top of it
/// (one store per video, owned by the worker evaluating that video).
class FeatureStore {
 public:
  /// Features per slab. At the synthetic model's dim 16 this is 128 KiB of
  /// payload per slab — big enough to amortize allocation, small enough
  /// that short videos don't overcommit.
  static constexpr std::size_t kSlabFeatures = 1024;

  FeatureStore() = default;

  /// Copies `dim` doubles into the arena and returns the new handle. The
  /// first call registers the store's dimension; later calls must match it.
  FeatureRef Append(const double* data, std::size_t dim);
  FeatureRef Append(const FeatureVector& feature) {
    return Append(feature.data(), feature.size());
  }

  /// Overwrites the slot of an existing handle in place (the forced-miss
  /// refresh path). The handle, and any view of it, stays valid and sees
  /// the new floats.
  void Overwrite(FeatureRef ref, const double* data, std::size_t dim);
  void Overwrite(FeatureRef ref, const FeatureVector& feature) {
    Overwrite(ref, feature.data(), feature.size());
  }

  /// Resolves a handle to its storage. O(1): one shift/mask plus one
  /// indexed load.
  FeatureView View(FeatureRef ref) const {
    return FeatureView(Slot(ref), dim_);
  }

  /// Raw slot pointer (the distance kernels' gather path).
  const double* Data(FeatureRef ref) const { return Slot(ref); }

  /// Registered feature dimension; 0 until the first Append.
  std::size_t dim() const { return dim_; }

  /// Number of features appended (orphaned slots included).
  std::size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// Releases every slab and forgets the registered dimension. Invalidates
  /// all handles and views — the one operation allowed to.
  void Clear();

 private:
  const double* Slot(FeatureRef ref) const;
  double* MutableSlot(FeatureRef ref);

  std::size_t dim_ = 0;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<double[]>> slabs_;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_FEATURE_STORE_H_
