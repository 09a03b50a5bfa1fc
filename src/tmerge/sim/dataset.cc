#include "tmerge/sim/dataset.h"

#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"

namespace tmerge::sim {

const char* DatasetProfileName(DatasetProfile profile) {
  switch (profile) {
    case DatasetProfile::kMot17Like:
      return "MOT-17";
    case DatasetProfile::kKittiLike:
      return "KITTI";
    case DatasetProfile::kPathTrackLike:
      return "PathTrack";
  }
  return "unknown";
}

VideoConfig ProfileConfig(DatasetProfile profile) {
  VideoConfig config;
  switch (profile) {
    case DatasetProfile::kMot17Like:
      config.name = "mot17like";
      config.num_frames = 900;
      config.frame_width = 1920.0;
      config.frame_height = 1080.0;
      config.object_class = ObjectClass::kPedestrian;
      config.initial_objects = 7;
      config.spawn_rate = 0.018;
      config.min_track_length = 100;
      config.max_track_length = 650;
      config.min_box_width = 45.0;
      config.max_box_width = 95.0;
      config.box_aspect = 2.4;
      config.initial_speed = 2.5;
      config.num_occluders = 2;
      config.occluder_min_size = 80.0;
      config.occluder_max_size = 170.0;
      config.glare_rate = 0.0015;
      break;
    case DatasetProfile::kKittiLike:
      config.name = "kittilike";
      config.num_frames = 420;
      config.frame_width = 1242.0;
      config.frame_height = 375.0;
      config.object_class = ObjectClass::kPedestrian;
      config.initial_objects = 5;
      config.spawn_rate = 0.04;
      config.min_track_length = 40;
      config.max_track_length = 200;
      config.min_box_width = 30.0;
      config.max_box_width = 60.0;
      config.box_aspect = 2.2;
      config.initial_speed = 4.0;  // Ego-motion makes pedestrians sweep fast.
      config.num_occluders = 3;
      config.occluder_min_size = 60.0;
      config.occluder_max_size = 160.0;
      config.glare_rate = 0.004;  // Sun glare is common in driving scenes.
      config.glare_full_frame_prob = 0.4;
      break;
    case DatasetProfile::kPathTrackLike:
      config.name = "pathtracklike";
      config.num_frames = 3600;  // ~2 minutes at 30 fps.
      config.frame_width = 1280.0;
      config.frame_height = 720.0;
      config.object_class = ObjectClass::kPedestrian;
      config.initial_objects = 4;
      config.spawn_rate = 0.012;
      config.min_track_length = 60;
      // The PathTrack annotations cap GT tracks around 1000 frames; this is
      // the L_max the paper's Fig. 9 discussion relies on.
      config.max_track_length = 1000;
      config.track_length_shape = 3.0;
      config.min_box_width = 35.0;
      config.max_box_width = 80.0;
      config.box_aspect = 2.3;
      config.initial_speed = 2.0;
      config.num_occluders = 4;
      config.glare_rate = 0.002;
      break;
  }
  return config;
}

Dataset MakeDataset(DatasetProfile profile, std::int32_t num_videos,
                    std::uint64_t seed) {
  TMERGE_CHECK(num_videos > 0);
  Dataset dataset;
  dataset.profile = profile;
  dataset.name = DatasetProfileName(profile);
  dataset.videos.reserve(num_videos);
  core::Rng rng(seed ^ 0xD5DA7A5E7ULL);
  for (std::int32_t i = 0; i < num_videos; ++i) {
    VideoConfig config = ProfileConfig(profile);
    // Two appends, not `+= "_" + to_string(i)`: GCC 12 at -O3 reports a
    // false -Wrestrict on the temporary concatenation.
    config.name += '_';
    config.name += std::to_string(i);
    // Vary scene density across videos to emulate distinct scenes.
    config.initial_objects += static_cast<std::int32_t>(rng.UniformInt(-2, 3));
    if (config.initial_objects < 2) config.initial_objects = 2;
    config.spawn_rate *= rng.Uniform(0.8, 1.25);
    config.num_occluders += static_cast<std::int32_t>(rng.UniformInt(-1, 1));
    if (config.num_occluders < 1) config.num_occluders = 1;
    dataset.videos.push_back(GenerateVideo(config, seed + 1000 + i));
  }
  return dataset;
}

}  // namespace tmerge::sim
