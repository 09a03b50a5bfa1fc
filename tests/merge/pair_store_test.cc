#include "tmerge/merge/pair_store.h"

#include <set>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace tmerge::merge {
namespace {

using testing::MakeResult;
using testing::MakeTrack;

TEST(MakeCropRefTest, ForwardsHiddenFields) {
  track::TrackedBox box;
  box.detection_id = 44;
  box.gt_id = 3;
  box.visibility = 0.7;
  box.glared = true;
  box.noise_seed = 555;
  reid::CropRef crop = MakeCropRef(box);
  EXPECT_EQ(crop.detection_id, 44u);
  EXPECT_EQ(crop.gt_id, 3);
  EXPECT_DOUBLE_EQ(crop.visibility, 0.7);
  EXPECT_TRUE(crop.glared);
  EXPECT_EQ(crop.noise_seed, 555u);
}

class PairContextTest : public ::testing::Test {
 protected:
  PairContextTest()
      : result_(MakeResult({MakeTrack(1, 0, 10, 0, 100.0, 100.0),
                            MakeTrack(2, 50, 20, 0, 400.0, 100.0),
                            MakeTrack(3, 100, 5, 1, 100.0, 500.0)})),
        context_(result_, {{1, 2}, {1, 3}, {2, 3}}) {}

  track::TrackingResult result_;
  PairContext context_;
};

TEST_F(PairContextTest, BasicAccessors) {
  EXPECT_EQ(context_.num_pairs(), 3u);
  EXPECT_EQ(context_.TrackA(0).id, 1);
  EXPECT_EQ(context_.TrackB(0).id, 2);
  EXPECT_EQ(context_.TrackB(2).id, 3);
}

TEST_F(PairContextTest, BoxPairCount) {
  EXPECT_EQ(context_.BoxPairCount(0), 200);  // 10 * 20.
  EXPECT_EQ(context_.BoxPairCount(1), 50);   // 10 * 5.
  EXPECT_EQ(context_.TotalBoxPairs(), 200 + 50 + 100);
}

TEST_F(PairContextTest, SpatialDistanceUsesTemporalOrder) {
  // Track 1 ends at x = 100 + 2*9 = 118 (center 118+25=143, y 160); track 2
  // starts at x = 400 (center 425, y 160). DisS = 282.
  EXPECT_NEAR(context_.SpatialDistance(0), 282.0, 1e-9);
}

TEST_F(PairContextTest, SpatialDistanceSymmetricInConstruction) {
  // Pair (2,3) given in either order refers to the same geometry.
  PairContext other(result_, {{2, 3}});
  EXPECT_DOUBLE_EQ(other.SpatialDistance(0), context_.SpatialDistance(2));
}

TEST_F(PairContextTest, TemporalGap) {
  EXPECT_EQ(context_.TemporalGap(0), 50 - 9 - 0);  // 41? gap = 50 - 9.
  // Track 1 ends at frame 9; track 2 starts at 50: gap = 41.
  EXPECT_EQ(context_.TemporalGap(0), 41);
  // Track 2 ends at 69; track 3 starts at 100: gap = 31.
  EXPECT_EQ(context_.TemporalGap(2), 31);
}

TEST(PairContextDeathTest, UnknownTidAborts) {
  track::TrackingResult result = MakeResult({MakeTrack(1, 0, 10, 0)});
  EXPECT_DEATH(PairContext(result, {{1, 99}}), "TMERGE_CHECK");
}

TEST(BoxPairSamplerTest, CoversGridWithoutReplacement) {
  core::Rng rng(5);
  BoxPairSampler sampler(4, 5);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(sampler.Exhausted());
    auto cell = sampler.Sample(rng);
    EXPECT_GE(cell.first, 0);
    EXPECT_LT(cell.first, 4);
    EXPECT_GE(cell.second, 0);
    EXPECT_LT(cell.second, 5);
    EXPECT_TRUE(seen.insert(cell).second) << "duplicate sample";
  }
  EXPECT_TRUE(sampler.Exhausted());
  EXPECT_EQ(sampler.sampled_count(), 20);
}

TEST(BoxPairSamplerTest, SingleCellGrid) {
  core::Rng rng(6);
  BoxPairSampler sampler(1, 1);
  auto cell = sampler.Sample(rng);
  EXPECT_EQ(cell, (std::pair<std::int32_t, std::int32_t>{0, 0}));
  EXPECT_TRUE(sampler.Exhausted());
}

TEST(BoxPairSamplerTest, LargeGridUniformish) {
  core::Rng rng(7);
  BoxPairSampler sampler(100, 100);
  std::set<std::int64_t> rows;
  for (int i = 0; i < 500; ++i) {
    auto [r, c] = sampler.Sample(rng);
    rows.insert(r);
  }
  // 500 draws over 100 rows: expect wide row coverage.
  EXPECT_GT(rows.size(), 80u);
}

TEST(BoxPairSamplerTest, PinnedSequenceAcrossDenseSwitch) {
  // Every selector's output depends on this exact draw order: rejection
  // sampling until half the grid is used, then swap-remove over the
  // remaining cells in ascending order. Cells are row * cols + col,
  // recorded when sampled cells lived in a std::unordered_map.
  struct Grid {
    std::int32_t rows;
    std::int32_t cols;
    std::vector<std::int32_t> cells;
  };
  const std::vector<Grid> grids = {
      {1, 9, {3, 8, 1, 2, 0, 5, 7, 4, 6}},
      {3, 5, {4, 0, 10, 14, 3, 12, 6, 8, 7, 9, 2, 13, 1, 5, 11}},
      {6, 4, {22, 20, 17, 18, 11, 4, 13, 1, 12, 8, 15, 0,
              7, 3, 6, 16, 5, 10, 19, 14, 9, 21, 2, 23}},
      {7, 7, {48, 40, 12, 9, 26, 44, 7, 36, 30, 41, 11, 6, 3, 23, 31, 24, 47,
              37, 13, 22, 17, 29, 33, 25, 35, 34, 39, 14, 32, 27, 18, 42, 19,
              1, 45, 15, 10, 43, 38, 16, 0, 8, 20, 21, 4, 28, 5, 2, 46}},
  };
  for (const Grid& grid : grids) {
    core::Rng rng(grid.rows * 100 + grid.cols);
    BoxPairSampler sampler(grid.rows, grid.cols);
    for (std::int32_t cell : grid.cells) {
      EXPECT_EQ(sampler.Sample(rng),
                std::make_pair(cell / grid.cols, cell % grid.cols))
          << grid.rows << "x" << grid.cols;
    }
    EXPECT_TRUE(sampler.Exhausted());
  }
}

TEST(BoxPairSamplerDeathTest, SamplingExhaustedAborts) {
  core::Rng rng(8);
  BoxPairSampler sampler(1, 2);
  sampler.Sample(rng);
  sampler.Sample(rng);
  EXPECT_DEATH(sampler.Sample(rng), "TMERGE_CHECK");
}

}  // namespace
}  // namespace tmerge::merge
