#include "tmerge/track/kalman_filter.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>

#include <gtest/gtest.h>

namespace tmerge::track {
namespace {

TEST(KalmanBoxFilterTest, InitialStateMatchesBox) {
  core::BoundingBox box{100, 200, 50, 120};
  KalmanBoxFilter filter(box);
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.x, box.x, 1e-6);
  EXPECT_NEAR(state.y, box.y, 1e-6);
  EXPECT_NEAR(state.width, box.width, 1e-6);
  EXPECT_NEAR(state.height, box.height, 1e-6);
}

TEST(KalmanBoxFilterTest, StationaryObjectStaysPut) {
  core::BoundingBox box{100, 200, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 0; i < 20; ++i) {
    filter.Predict();
    filter.Update(box);
  }
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.x, box.x, 1.0);
  EXPECT_NEAR(state.y, box.y, 1.0);
}

TEST(KalmanBoxFilterTest, LearnsConstantVelocity) {
  core::BoundingBox box{100, 100, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 1; i <= 30; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.x = 100 + 3.0 * i;
    filter.Update(observed);
  }
  // After convergence the one-step prediction should land ~3px right of the
  // last update.
  core::BoundingBox predicted = filter.Predict();
  EXPECT_NEAR(predicted.x, 100 + 3.0 * 31, 1.5);
}

TEST(KalmanBoxFilterTest, PredictionContinuesThroughGap) {
  // While detections are missing (occlusion), repeated Predict() must
  // extrapolate along the learned velocity — the behavior SORT relies on
  // to bridge short gaps.
  core::BoundingBox box{100, 100, 50, 120};
  KalmanBoxFilter filter(box);
  for (int i = 1; i <= 30; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.x = 100 + 2.0 * i;
    filter.Update(observed);
  }
  double last_x = filter.StateBox().x;
  core::BoundingBox coasted;
  for (int i = 0; i < 5; ++i) coasted = filter.Predict();
  EXPECT_GT(coasted.x, last_x + 5.0);
}

TEST(KalmanBoxFilterTest, AspectRatioStable) {
  core::BoundingBox box{50, 50, 40, 100};
  KalmanBoxFilter filter(box);
  for (int i = 0; i < 10; ++i) {
    filter.Predict();
    filter.Update(box);
  }
  core::BoundingBox state = filter.StateBox();
  EXPECT_NEAR(state.width / state.height, 0.4, 0.02);
}

TEST(KalmanBoxFilterTest, AreaNeverNegative) {
  core::BoundingBox box{50, 50, 40, 100};
  KalmanBoxFilter filter(box);
  // Shrinking observations could drive the area velocity negative; the
  // filter must clamp rather than produce an invalid box.
  for (int i = 0; i < 40; ++i) {
    filter.Predict();
    core::BoundingBox observed = box;
    observed.width = std::max(2.0, 40.0 - i);
    observed.height = std::max(5.0, 100.0 - 2.5 * i);
    filter.Update(observed);
  }
  for (int i = 0; i < 50; ++i) {
    core::BoundingBox predicted = filter.Predict();
    EXPECT_GT(predicted.Area(), 0.0);
  }
}

// FNV-1a over the bit patterns of every box folded in.
class BoxBitsHash {
 public:
  void Fold(const core::BoundingBox& box) {
    for (double value : {box.x, box.y, box.width, box.height}) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
      for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (bits >> (8 * byte)) & 0xFF;
        hash_ *= 0x100000001B3ULL;
      }
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Pins the exact bits of every Predict() and StateBox() result. The other
// tests here allow a tolerance, and a one-ulp drift could still flip an
// IoU association on some input. The box sequence is RNG-free: it moves,
// coasts through gaps, shrinks until the area-velocity clamp fires, and
// then holds still.
TEST(KalmanBoxFilterTest, StateBitsMatchReference) {
  KalmanBoxFilter filter({100, 200, 50, 120});
  BoxBitsHash hash;
  auto observe = [&](const core::BoundingBox& box) {
    hash.Fold(filter.Predict());
    filter.Update(box);
    hash.Fold(filter.StateBox());
  };
  auto coast = [&](int frames) {
    for (int i = 0; i < frames; ++i) hash.Fold(filter.Predict());
  };

  // Constant velocity, broken by two gaps.
  for (int i = 1; i <= 30; ++i) {
    if (i == 10) coast(3);
    if (i == 20) coast(5);
    observe({100 + 3.0 * i, 200 + 1.5 * i, 50, 120});
  }
  const core::BoundingBox moving = filter.StateBox();

  // Shrink fast, then coast: the predicted area falls until x[2] + x[6]
  // would reach zero, after which the clamped area velocity keeps the
  // box size fixed.
  for (int i = 1; i <= 8; ++i) {
    observe({190 + 2.0 * i, 245, 50 - 5.0 * i, 120 - 12.0 * i});
  }
  core::BoundingBox coasted = filter.Predict();
  hash.Fold(coasted);
  int shrinking = 0;
  int frozen = 0;
  for (int i = 0; i < 20; ++i) {
    const double last_width = coasted.width;
    coasted = filter.Predict();
    hash.Fold(coasted);
    if (coasted.width < last_width) ++shrinking;
    if (coasted.width == last_width) ++frozen;
  }
  EXPECT_GT(shrinking, 0);
  EXPECT_GT(frozen, 0);

  // Hold still.
  for (int i = 0; i < 25; ++i) observe({230, 240, 12, 30});
  const core::BoundingBox still = filter.StateBox();

  EXPECT_EQ(moving.x, 0x1.7b5a0d6c56533p+7) << std::hexfloat << moving.x;
  EXPECT_EQ(coasted.width, 0x1.dc2cfd5e8b012p+2)
      << std::hexfloat << coasted.width;
  EXPECT_EQ(still.width, 0x1.81b94952a5db6p+3) << std::hexfloat << still.width;
  EXPECT_EQ(hash.value(), 0xEC71D9F5AF2E1434ULL) << std::hex << hash.value();
}

}  // namespace
}  // namespace tmerge::track
