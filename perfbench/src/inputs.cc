#include "inputs.h"

#include <sstream>

#include "spans.h"
#include "tmerge/metrics/gt_matcher.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/track/sort_tracker.h"

namespace perfbench {
namespace {

void HashInto(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
}

void HashPairs(std::uint64_t& hash,
               const std::vector<tmerge::metrics::TrackPairKey>& pairs) {
  for (const auto& [a, b] : pairs) {
    HashInto(hash, static_cast<std::uint32_t>(a));
    HashInto(hash, static_cast<std::uint32_t>(b));
  }
}

}  // namespace

std::string Fingerprint::ToString() const {
  std::ostringstream out;
  out << "frames=" << frames << " detections=" << detections
      << " tracks=" << tracks << " windows=" << windows << " pairs=" << pairs
      << " truth_pairs=" << truth_pairs << " hash=" << std::hex << hash;
  return out.str();
}

std::unique_ptr<WorkloadInputs> BuildInputs(const InputSpec& spec) {
  SpanRecorder& recorder = SpanRecorder::Get();
  static const int kSetup = recorder.Layer("setup");
  static const int kGenerate = recorder.Layer("sim.generate");
  static const int kDetect = recorder.Layer("detect.simulate");
  static const int kTrack = recorder.Layer("track.run");
  static const int kModel = recorder.Layer("reid.model");
  static const int kWindow = recorder.Layer("window.build");
  static const int kGtMatch = recorder.Layer("metrics.gt_match");

  ScopedSpan setup_span(kSetup);
  auto inputs = std::make_unique<WorkloadInputs>();
  std::uint64_t dataset_seed = 424242;
  inputs->pipeline.window = spec.window;
  inputs->pipeline.seed = 0xBEEFULL + 7919 * spec.seed;
  inputs->pipeline.num_threads = 1;

  {
    ScopedSpan span(kGenerate);
    if (spec.frames == 0) {
      inputs->dataset =
          tmerge::sim::MakeDataset(spec.profile, spec.videos, dataset_seed);
    } else {
      tmerge::sim::VideoConfig base = tmerge::sim::ProfileConfig(spec.profile);
      base.num_frames = spec.frames;
      inputs->dataset.name = tmerge::sim::DatasetProfileName(spec.profile);
      inputs->dataset.profile = spec.profile;
      for (std::int32_t i = 0; i < spec.videos; ++i) {
        inputs->dataset.videos.push_back(
            tmerge::sim::GenerateVideo(base, dataset_seed + i));
      }
    }
  }

  const auto& videos = inputs->dataset.videos;
  inputs->detections.resize(videos.size());
  inputs->prepared.resize(videos.size());
  Fingerprint& print = inputs->fingerprint;
  print.hash = 0xCBF29CE484222325ULL;
  tmerge::track::SortTracker tracker;
  for (std::size_t i = 0; i < videos.size(); ++i) {
    // merge::PrepareDataset's per-video seed, so results match it exactly.
    std::uint64_t seed = inputs->pipeline.seed + 31 * (i + 1);
    tmerge::merge::PreparedVideo& prepared = inputs->prepared[i];
    prepared.video = &videos[i];
    {
      ScopedSpan span(kDetect);
      inputs->detections[i] = tmerge::detect::SimulateDetections(
          videos[i], inputs->pipeline.detector, seed);
    }
    {
      ScopedSpan span(kTrack);
      prepared.tracking = tracker.Run(inputs->detections[i]);
    }
    {
      ScopedSpan span(kModel);
      prepared.model = std::make_shared<tmerge::reid::SyntheticReidModel>(
          videos[i], inputs->pipeline.reid, seed);
    }
    {
      ScopedSpan span(kWindow);
      prepared.windows =
          tmerge::merge::BuildWindows(prepared.tracking, spec.window);
    }
    {
      ScopedSpan span(kGtMatch);
      prepared.assignment = tmerge::metrics::MatchTracksToGt(
          videos[i], prepared.tracking, inputs->pipeline.gt_match);
      prepared.truth = tmerge::metrics::PolyonymousPairs(prepared.tracking,
                                                         prepared.assignment);
    }
    print.frames += videos[i].num_frames;
    print.detections += inputs->detections[i].TotalDetections();
    print.tracks += static_cast<long long>(prepared.tracking.tracks.size());
    for (const auto& window : prepared.windows) {
      if (!window.pairs.empty()) ++print.windows;
      print.pairs += static_cast<long long>(window.pairs.size());
      HashPairs(print.hash, window.pairs);
    }
    print.truth_pairs += static_cast<long long>(prepared.truth.size());
    HashPairs(print.hash, prepared.truth);
  }
  return inputs;
}

bool MatchesPrepareVideo(const WorkloadInputs& inputs) {
  if (inputs.prepared.empty()) return true;
  tmerge::merge::PipelineConfig config = inputs.pipeline;
  config.seed = inputs.pipeline.seed + 31;
  tmerge::track::SortTracker tracker;
  tmerge::merge::PreparedVideo reference = tmerge::merge::PrepareVideo(
      inputs.dataset.videos[0], tracker, config);
  const tmerge::merge::PreparedVideo& mine = inputs.prepared[0];
  if (reference.tracking.tracks.size() != mine.tracking.tracks.size() ||
      reference.windows.size() != mine.windows.size() ||
      reference.truth != mine.truth) {
    return false;
  }
  for (std::size_t t = 0; t < mine.tracking.tracks.size(); ++t) {
    if (reference.tracking.tracks[t].id != mine.tracking.tracks[t].id ||
        reference.tracking.tracks[t].boxes.size() !=
            mine.tracking.tracks[t].boxes.size()) {
      return false;
    }
  }
  for (std::size_t w = 0; w < mine.windows.size(); ++w) {
    if (reference.windows[w].pairs != mine.windows[w].pairs) return false;
  }
  return true;
}

}  // namespace perfbench
