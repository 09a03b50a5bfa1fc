#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/sim/dataset.h"

namespace perfbench {

/// What to generate for one workload. Everything random derives from
/// `seed`; the library only ever sees the generated inputs.
struct InputSpec {
  tmerge::sim::DatasetProfile profile = tmerge::sim::DatasetProfile::kMot17Like;
  std::int32_t videos = 1;
  /// Frames per video; 0 keeps the profile's own length and per-video
  /// density variation (sim::MakeDataset).
  std::int32_t frames = 0;
  tmerge::merge::WindowConfig window;
  std::uint64_t seed = 1;
};

/// Counts that identify a set of generated inputs. Two runs measured the
/// same inputs iff their fingerprints are equal.
struct Fingerprint {
  long long frames = 0;
  long long detections = 0;
  long long tracks = 0;
  long long windows = 0;
  long long pairs = 0;
  long long truth_pairs = 0;
  std::uint64_t hash = 0;  ///< FNV-1a over window pairs and truth pairs.

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

/// Generated videos and their prepared per-video state, built step by step
/// with the public preparation calls (detect, track, window, GT match) in
/// the order and with the per-video seeds merge::PrepareDataset uses.
/// Owns the videos the prepared state points into, so it is not movable.
struct WorkloadInputs {
  tmerge::sim::Dataset dataset;
  tmerge::merge::PipelineConfig pipeline;
  std::vector<tmerge::detect::DetectionSequence> detections;
  std::vector<tmerge::merge::PreparedVideo> prepared;
  Fingerprint fingerprint;

  WorkloadInputs() = default;
  WorkloadInputs(const WorkloadInputs&) = delete;
  WorkloadInputs& operator=(const WorkloadInputs&) = delete;
};

/// Generates and prepares the inputs. Each step runs inside a span named
/// after its layer (sim.generate, detect.simulate, track.run, reid.model,
/// window.build, metrics.gt_match) under a "setup" root, so a traced build
/// yields the prepare-layer breakdown.
std::unique_ptr<WorkloadInputs> BuildInputs(const InputSpec& spec);

/// Re-prepares video 0 with merge::PrepareVideo and returns whether its
/// tracks, windows and truth equal the step-by-step preparation.
bool MatchesPrepareVideo(const WorkloadInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
