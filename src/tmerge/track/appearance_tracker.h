#ifndef TMERGE_TRACK_APPEARANCE_TRACKER_H_
#define TMERGE_TRACK_APPEARANCE_TRACKER_H_

#include <string>

#include "tmerge/reid/reid_model.h"
#include "tmerge/track/track.h"

namespace tmerge::track {

/// DeepSORT-style tracker: Hungarian assignment over a cost that blends
/// normalized ReID feature distance with IoU, gated spatially. The
/// appearance term lets it bridge occlusion gaps up to 18 frames, so it
/// fragments less than SORT but still produces polyonymous tracks on
/// longer occlusions — matching its placement in the paper's Fig. 11. Its
/// parameters are constants in appearance_tracker.cc.
///
/// The tracker uses the synthetic ReID model for per-detection embeddings
/// (as the real DeepSORT uses its appearance descriptor); this cost is part
/// of tracking, not of the merging algorithms the paper meters.
class AppearanceTracker : public Tracker {
 public:
  explicit AppearanceTracker(const reid::ReidModel* model);

  TrackingResult Run(const detect::DetectionSequence& detections) override;

  std::string name() const override { return "DeepSORT"; }

 private:
  const reid::ReidModel* model_;
};

}  // namespace tmerge::track

#endif  // TMERGE_TRACK_APPEARANCE_TRACKER_H_
