#ifndef TMERGE_TRACK_REGRESSION_TRACKER_H_
#define TMERGE_TRACK_REGRESSION_TRACKER_H_

#include <string>

#include "tmerge/track/track.h"

namespace tmerge::track {

/// Tracktor-style tracker (Bergmann et al., ICCV 2019): instead of a
/// learned motion model it "regresses" each track's previous box onto the
/// current frame — simulated here by greedily adopting the best-IoU
/// current detection, which mirrors the part-to-whole assumption that the
/// object moved little between frames. High spawn thresholds suppress
/// false tracks; overall it is the most accurate of the three trackers, as
/// in the paper's evaluation, yet it still fragments on real occlusion
/// gaps. Its parameters are constants in regression_tracker.cc.
class RegressionTracker : public Tracker {
 public:
  TrackingResult Run(const detect::DetectionSequence& detections) override;

  std::string name() const override { return "Tracktor"; }
};

}  // namespace tmerge::track

#endif  // TMERGE_TRACK_REGRESSION_TRACKER_H_
