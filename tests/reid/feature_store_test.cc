#include "tmerge/reid/feature_store.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tmerge/reid/feature.h"

namespace tmerge::reid {
namespace {

FeatureVector MakeFeature(std::size_t dim, double base) {
  FeatureVector v(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    v[i] = base + static_cast<double>(i);
  }
  return v;
}

TEST(FeatureRefTest, DefaultIsInvalid) {
  FeatureRef ref;
  EXPECT_FALSE(ref.valid());
  EXPECT_EQ(ref, FeatureRef{});
  EXPECT_NE(ref, (FeatureRef{0}));
  EXPECT_TRUE(FeatureRef{0}.valid());
}

TEST(FeatureStoreTest, AppendRoundTrips) {
  FeatureStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.dim(), 0u);

  FeatureVector f = MakeFeature(16, 1.0);
  FeatureRef ref = store.Append(f);
  ASSERT_TRUE(ref.valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dim(), 16u);

  FeatureView view = store.View(ref);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.dim, 16u);
  EXPECT_EQ(view.ToVector(), f);
  EXPECT_EQ(store.Data(ref), view.data);
}

TEST(FeatureStoreTest, HandlesAreDenseAppendOrdinals) {
  FeatureStore store;
  for (std::uint32_t i = 0; i < 10; ++i) {
    FeatureRef ref = store.Append(MakeFeature(4, i));
    EXPECT_EQ(ref.index, i);
  }
}

// The handle-stability contract: growing the arena past several slab
// boundaries must not move any previously returned slot.
TEST(FeatureStoreTest, DataPointersStableAcrossSlabGrowth) {
  FeatureStore store;
  constexpr std::size_t kCount = 3 * FeatureStore::kSlabFeatures + 17;
  std::vector<const double*> pointers;
  std::vector<FeatureRef> refs;
  for (std::size_t i = 0; i < kCount; ++i) {
    FeatureRef ref = store.Append(MakeFeature(8, static_cast<double>(i)));
    refs.push_back(ref);
    pointers.push_back(store.Data(ref));
  }
  EXPECT_EQ(store.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(store.Data(refs[i]), pointers[i]) << i;
    EXPECT_EQ(store.View(refs[i]).ToVector(),
              MakeFeature(8, static_cast<double>(i)))
        << i;
  }
}

// Features within one slab are contiguous at dim-double stride — the
// locality property the distance kernels exploit.
TEST(FeatureStoreTest, SlabNeighborsAreContiguous) {
  FeatureStore store;
  FeatureRef a = store.Append(MakeFeature(8, 0.0));
  FeatureRef b = store.Append(MakeFeature(8, 1.0));
  EXPECT_EQ(store.Data(b), store.Data(a) + 8);
}

TEST(FeatureStoreTest, OverwriteRefreshesInPlace) {
  FeatureStore store;
  FeatureRef ref = store.Append(MakeFeature(8, 0.0));
  const double* before = store.Data(ref);
  FeatureVector fresh = MakeFeature(8, 42.0);
  store.Overwrite(ref, fresh);
  EXPECT_EQ(store.Data(ref), before);  // Same slot...
  EXPECT_EQ(store.View(ref).ToVector(), fresh);  // ...fresh floats.
}

TEST(FeatureStoreTest, ClearResetsDimRegistration) {
  FeatureStore store;
  store.Append(MakeFeature(8, 0.0));
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.dim(), 0u);
  // A different dimension is acceptable after Clear: registration restarts.
  FeatureRef ref = store.Append(MakeFeature(4, 1.0));
  EXPECT_EQ(store.dim(), 4u);
  EXPECT_EQ(ref.index, 0u);
}

// The single dimension-validation point: every feature entering the arena
// must match the registered dimension (this is what lets the distance
// kernels drop their per-call dimension check to debug-only).
TEST(FeatureStoreDeathTest, MismatchedDimensionAborts) {
  FeatureStore store;
  store.Append(MakeFeature(8, 0.0));
  EXPECT_DEATH(store.Append(MakeFeature(4, 0.0)), "TMERGE_CHECK");
}

TEST(FeatureStoreDeathTest, ZeroDimensionAborts) {
  FeatureStore store;
  FeatureVector empty;
  EXPECT_DEATH(store.Append(empty), "TMERGE_CHECK");
}

}  // namespace
}  // namespace tmerge::reid
