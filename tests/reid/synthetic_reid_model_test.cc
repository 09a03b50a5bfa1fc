#include "tmerge/reid/synthetic_reid_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tmerge/core/rng.h"
#include "tmerge/sim/video_generator.h"

namespace tmerge::reid {
namespace {

sim::SyntheticVideo TwoObjectVideo() {
  sim::SyntheticVideo video;
  video.num_frames = 10;
  for (sim::GtObjectId id = 0; id < 2; ++id) {
    sim::GroundTruthTrack track;
    track.id = id;
    track.appearance = sim::AppearanceVector(16, 0.0);
    track.appearance[id] = 4.0;  // Orthogonal appearances.
    sim::GroundTruthBox box;
    box.frame = 0;
    box.box = {0, 0, 10, 10};
    track.boxes.push_back(box);
    video.tracks.push_back(std::move(track));
  }
  return video;
}

CropRef Crop(std::uint64_t id, sim::GtObjectId gt, std::uint64_t seed,
             double visibility = 1.0, bool glared = false) {
  return CropRef{id, gt, visibility, glared, seed};
}

TEST(SyntheticReidModelTest, DeterministicPerCrop) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 11);
  FeatureVector a = model.Embed(Crop(1, 0, 555));
  FeatureVector b = model.Embed(Crop(1, 0, 555));
  EXPECT_EQ(a, b);
}

TEST(SyntheticReidModelTest, DifferentSeedsDifferentNoise) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 11);
  FeatureVector a = model.Embed(Crop(1, 0, 555));
  FeatureVector b = model.Embed(Crop(2, 0, 556));
  EXPECT_NE(a, b);
  // But both near the same latent: distance small.
  EXPECT_LT(FeatureDistance(a, b), 3.0);
}

TEST(SyntheticReidModelTest, SameObjectCloserThanDifferentObjects) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 13);
  double same_sum = 0.0, cross_sum = 0.0;
  int n = 50;
  for (int i = 0; i < n; ++i) {
    FeatureVector a0 = model.Embed(Crop(1000 + i, 0, 7000 + i));
    FeatureVector b0 = model.Embed(Crop(2000 + i, 0, 9000 + i));
    FeatureVector a1 = model.Embed(Crop(3000 + i, 1, 11000 + i));
    same_sum += FeatureDistance(a0, b0);
    cross_sum += FeatureDistance(a0, a1);
  }
  EXPECT_LT(same_sum / n, 0.5 * cross_sum / n);
}

TEST(SyntheticReidModelTest, OcclusionIncreasesNoise) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 17);
  const sim::AppearanceVector& latent = video.tracks[0].appearance;
  double clear_sum = 0.0, occluded_sum = 0.0;
  int n = 60;
  for (int i = 0; i < n; ++i) {
    FeatureVector clear = model.Embed(Crop(1 + i, 0, 100 + i, 1.0));
    FeatureVector occluded = model.Embed(Crop(500 + i, 0, 600 + i, 0.1));
    clear_sum += FeatureDistance(clear, latent);
    occluded_sum += FeatureDistance(occluded, latent);
  }
  EXPECT_LT(clear_sum / n, occluded_sum / n);
}

TEST(SyntheticReidModelTest, GlareIncreasesNoise) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 19);
  const sim::AppearanceVector& latent = video.tracks[0].appearance;
  double clear_sum = 0.0, glared_sum = 0.0;
  int n = 60;
  for (int i = 0; i < n; ++i) {
    clear_sum += FeatureDistance(
        model.Embed(Crop(1 + i, 0, 100 + i, 1.0, false)), latent);
    glared_sum += FeatureDistance(
        model.Embed(Crop(500 + i, 0, 600 + i, 1.0, true)), latent);
  }
  EXPECT_LT(clear_sum / n, glared_sum / n);
}

TEST(SyntheticReidModelTest, FalsePositiveEmbeddingsFarFromObjects) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 23);
  double cross_sum = 0.0;
  int n = 40;
  for (int i = 0; i < n; ++i) {
    FeatureVector object = model.Embed(Crop(1 + i, 0, 50 + i));
    FeatureVector fp = model.Embed(Crop(900 + i, sim::kNoObject, 990 + i));
    cross_sum += FeatureDistance(object, fp);
  }
  EXPECT_GT(cross_sum / n, 1.0);
}

TEST(SyntheticReidModelTest, NormalizedDistanceInUnitInterval) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 29);
  core::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    FeatureVector a = model.Embed(
        Crop(i, static_cast<sim::GtObjectId>(i % 2), 10 * i));
    FeatureVector b = model.Embed(
        Crop(1000 + i, sim::kNoObject, 20 * i));
    double d = model.NormalizedDistance(a, b);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(SyntheticReidModelTest, NormalizationScalePositive) {
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 31);
  EXPECT_GT(model.normalization_scale(), 0.0);
}

TEST(SyntheticReidModelTest, NoiseLawPerDimension) {
  // Over many crops of one GT object, feature - latent has mean 0 and
  // standard deviation sigma = observation_noise + occlusion_noise_scale *
  // (1 - visibility) + glare_noise (when glared) in every dimension. Noise
  // seeds count 1, 2, 3, ..., as MOT-format input numbers its crops.
  sim::SyntheticVideo video = TwoObjectVideo();
  const ReidModelConfig config;
  SyntheticReidModel model(video, config, 41);
  const sim::AppearanceVector& latent = video.tracks[1].appearance;
  constexpr int kCrops = 4000;
  struct Case {
    double visibility;
    bool glared;
  };
  std::uint64_t noise_seed = 1;
  for (Case c : {Case{1.0, false}, Case{1.0, true}, Case{0.4, false},
                 Case{0.4, true}}) {
    const double sigma = config.observation_noise +
                         config.occlusion_noise_scale * (1.0 - c.visibility) +
                         (c.glared ? config.glare_noise : 0.0);
    std::vector<double> sum(latent.size(), 0.0);
    std::vector<double> sum_sq(latent.size(), 0.0);
    for (int n = 0; n < kCrops; ++n) {
      FeatureVector feature =
          model.Embed(Crop(n, 1, noise_seed++, c.visibility, c.glared));
      for (std::size_t i = 0; i < latent.size(); ++i) {
        const double error = feature[i] - latent[i];
        sum[i] += error;
        sum_sq[i] += error * error;
      }
    }
    // Five standard errors: sigma / sqrt(n) for the mean, about
    // sigma / sqrt(2 n) for the standard deviation.
    for (std::size_t i = 0; i < latent.size(); ++i) {
      const double mean = sum[i] / kCrops;
      const double stddev = std::sqrt(sum_sq[i] / kCrops - mean * mean);
      EXPECT_NEAR(mean, 0.0, 5.0 * sigma / std::sqrt(kCrops))
          << "dimension " << i << ", sigma " << sigma;
      EXPECT_NEAR(stddev, sigma, 5.0 * sigma / std::sqrt(2.0 * kCrops))
          << "dimension " << i << ", sigma " << sigma;
    }
  }
}

TEST(SyntheticReidModelTest, EmbedBitsMatchReference) {
  // FNV-1a over the bit patterns of every feature of a fixed list of
  // crops: GT objects and a false positive, clear, occluded and glared,
  // with small, adjacent and large noise seeds. Any change to how a crop's
  // noise is drawn moves it, and with it every pinned REC and count.
  sim::SyntheticVideo video = TwoObjectVideo();
  SyntheticReidModel model(video, {}, 42);
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const CropRef& crop :
       {Crop(0, 0, 1), Crop(1, 0, 2), Crop(2, 1, 3, 0.5),
        Crop(3, 1, 0xDEADBEEFULL, 1.0, true),
        Crop(4, sim::kNoObject, 5), Crop(5, 0, 0),
        Crop(6, sim::kNoObject, ~std::uint64_t{0}, 0.2, true)}) {
    for (double value : model.Embed(crop)) {
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xFF;
        hash *= 0x100000001B3ULL;
      }
    }
  }
  EXPECT_EQ(hash, 0x3F5A50B9944503BFULL);
}

TEST(SyntheticReidModelTest, WorksOnGeneratedVideo) {
  sim::VideoConfig config;
  config.num_frames = 100;
  config.initial_objects = 4;
  config.min_track_length = 30;
  config.max_track_length = 80;
  sim::SyntheticVideo video = sim::GenerateVideo(config, 3);
  SyntheticReidModel model(video, {}, 37);
  EXPECT_EQ(model.feature_dim(), config.appearance.dim);
}

}  // namespace
}  // namespace tmerge::reid
