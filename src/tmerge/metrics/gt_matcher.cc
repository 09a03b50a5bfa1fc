#include "tmerge/metrics/gt_matcher.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "tmerge/core/status.h"
#include "tmerge/track/hungarian.h"

namespace tmerge::metrics {

TrackPairKey MakePairKey(track::TrackId a, track::TrackId b) {
  return a < b ? TrackPairKey{a, b} : TrackPairKey{b, a};
}

TrackGtAssignment MatchTracksToGt(const sim::SyntheticVideo& video,
                                  const track::TrackingResult& result,
                                  const GtMatchConfig& config) {
  // Index GT boxes and tracked boxes by frame.
  struct GtRef {
    std::size_t gt_index;
    const core::BoundingBox* box;
  };
  struct PredRef {
    std::size_t track_index;
    const core::BoundingBox* box;
  };
  std::vector<std::vector<GtRef>> gt_by_frame(video.num_frames);
  for (std::size_t g = 0; g < video.tracks.size(); ++g) {
    for (const auto& gt_box : video.tracks[g].boxes) {
      gt_by_frame[gt_box.frame].push_back({g, &gt_box.box});
    }
  }
  std::vector<std::vector<PredRef>> pred_by_frame(video.num_frames);
  for (std::size_t t = 0; t < result.tracks.size(); ++t) {
    for (const auto& tracked : result.tracks[t].boxes) {
      if (tracked.frame >= 0 && tracked.frame < video.num_frames) {
        pred_by_frame[tracked.frame].push_back({t, &tracked.box});
      }
    }
  }

  // Per-frame Hungarian matching; accumulate per-(track, gt) match counts.
  // The cost rows and the solver's buffers are reused across frames.
  constexpr double kInfCost = 1e9;
  std::vector<std::unordered_map<std::size_t, std::int32_t>> votes(
      result.tracks.size());
  std::vector<std::vector<double>> cost;
  track::AssignmentWorkspace workspace;
  for (std::int32_t frame = 0; frame < video.num_frames; ++frame) {
    const auto& gts = gt_by_frame[frame];
    const auto& preds = pred_by_frame[frame];
    if (gts.empty() || preds.empty()) continue;
    cost.resize(preds.size());
    for (std::size_t p = 0; p < preds.size(); ++p) {
      cost[p].assign(gts.size(), kInfCost);
      for (std::size_t g = 0; g < gts.size(); ++g) {
        double iou = core::Iou(*preds[p].box, *gts[g].box);
        if (iou >= config.iou_threshold) cost[p][g] = 1.0 - iou;
      }
    }
    const std::vector<int>& assignment =
        track::SolveAssignment(cost, workspace);
    for (std::size_t p = 0; p < preds.size(); ++p) {
      int g = assignment[p];
      if (g >= 0 && cost[p][g] < kInfCost) {
        votes[preds[p].track_index][gts[g].gt_index] += 1;
      }
    }
  }

  TrackGtAssignment out;
  out.track_to_gt.assign(result.tracks.size(), sim::kNoObject);
  out.match_fraction.assign(result.tracks.size(), 0.0);
  for (std::size_t t = 0; t < result.tracks.size(); ++t) {
    std::size_t best_gt = 0;
    std::int32_t best_votes = 0;
    for (const auto& [gt_index, count] : votes[t]) {
      if (count > best_votes) {
        best_votes = count;
        best_gt = gt_index;
      }
    }
    std::int32_t track_size = result.tracks[t].size();
    if (track_size == 0) continue;
    double fraction = static_cast<double>(best_votes) / track_size;
    if (best_votes > 0 && fraction >= config.majority_fraction) {
      out.track_to_gt[t] = video.tracks[best_gt].id;
      out.match_fraction[t] = fraction;
    }
  }
  return out;
}

std::vector<TrackPairKey> PolyonymousPairs(
    const track::TrackingResult& result, const TrackGtAssignment& assignment) {
  TMERGE_CHECK(assignment.track_to_gt.size() == result.tracks.size());
  std::map<sim::GtObjectId, std::vector<track::TrackId>> by_gt;
  for (std::size_t t = 0; t < result.tracks.size(); ++t) {
    sim::GtObjectId gt = assignment.track_to_gt[t];
    if (gt != sim::kNoObject) by_gt[gt].push_back(result.tracks[t].id);
  }
  std::vector<TrackPairKey> pairs;
  for (auto& [gt, tids] : by_gt) {
    std::sort(tids.begin(), tids.end());
    for (std::size_t i = 0; i < tids.size(); ++i) {
      for (std::size_t j = i + 1; j < tids.size(); ++j) {
        pairs.push_back(MakePairKey(tids[i], tids[j]));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace tmerge::metrics
