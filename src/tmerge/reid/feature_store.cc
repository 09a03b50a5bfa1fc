#include "tmerge/reid/feature_store.h"

#include <algorithm>

#include "tmerge/core/status.h"

namespace tmerge::reid {

FeatureRef FeatureStore::Append(const double* data, std::size_t dim) {
  if (size_ == 0) {
    TMERGE_CHECK(dim > 0);
    dim_ = dim;
  } else {
    // The single dimension-validation point (see header): every feature
    // entering the arena is checked here, once, so the distance kernels
    // can run without per-call checks.
    TMERGE_CHECK(dim == dim_);
  }
  TMERGE_CHECK(size_ < FeatureRef::kInvalidIndex);
  const std::size_t slab = size_ / kSlabFeatures;
  const std::size_t offset = (size_ % kSlabFeatures) * dim_;
  if (slab == slabs_.size()) {
    slabs_.push_back(std::make_unique<double[]>(kSlabFeatures * dim_));
  }
  std::copy(data, data + dim_, slabs_[slab].get() + offset);
  FeatureRef ref{static_cast<std::uint32_t>(size_)};
  ++size_;
  return ref;
}

void FeatureStore::Overwrite(FeatureRef ref, const double* data,
                             std::size_t dim) {
  TMERGE_CHECK(dim == dim_);
  std::copy(data, data + dim_, MutableSlot(ref));
}

void FeatureStore::Clear() {
  slabs_.clear();
  size_ = 0;
  dim_ = 0;
}

const double* FeatureStore::Slot(FeatureRef ref) const {
  TMERGE_DCHECK(ref.index < size_);
  return slabs_[ref.index / kSlabFeatures].get() +
         (ref.index % kSlabFeatures) * dim_;
}

double* FeatureStore::MutableSlot(FeatureRef ref) {
  TMERGE_CHECK(ref.index < size_);
  return slabs_[ref.index / kSlabFeatures].get() +
         (ref.index % kSlabFeatures) * dim_;
}

}  // namespace tmerge::reid
