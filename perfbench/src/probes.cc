#include "probes.h"

#include <iomanip>
#include <ostream>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "tmerge/core/rng.h"
#include "tmerge/merge/pair_store.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature_cache.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 7;

double BetaDrawNs(std::uint64_t seed) {
  // Posterior shapes from the flat prior up to a few hundred pulls.
  const std::vector<double> shapes = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144};
  constexpr int kDraws = 100000;
  tmerge::core::Rng rng(seed);
  std::vector<double> ns_per_draw;
  double sink = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    long long start = NowNs();
    for (int i = 0; i < kDraws; ++i) {
      sink += rng.Beta(shapes[i % shapes.size()],
                       shapes[(i / shapes.size()) % shapes.size()]);
    }
    ns_per_draw.push_back(static_cast<double>(NowNs() - start) / kDraws);
  }
  // A data dependency on every draw keeps the loop from being elided.
  volatile double keep = sink;
  (void)keep;
  return Median(ns_per_draw);
}

double DistanceNs(const tmerge::merge::PreparedVideo& video) {
  constexpr std::size_t kCrops = 256;
  tmerge::reid::FeatureCache cache;
  tmerge::reid::InferenceMeter meter{tmerge::reid::CostModel{}};
  std::vector<tmerge::reid::FeatureView> views;
  for (const auto& track : video.tracking.tracks) {
    for (const auto& box : track.boxes) {
      if (views.size() == kCrops) break;
      views.push_back(cache.GetOrEmbed(tmerge::merge::MakeCropRef(box),
                                       *video.model, meter));
    }
  }
  if (views.size() < 2) return 0.0;
  std::vector<double> ns_per_distance;
  double sink = 0.0;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    long long count = 0;
    long long start = NowNs();
    for (std::size_t a = 0; a < views.size(); ++a) {
      for (std::size_t b = a + 1; b < views.size(); ++b) {
        sink += video.model->NormalizedDistance(views[a], views[b]);
        ++count;
      }
    }
    ns_per_distance.push_back(static_cast<double>(NowNs() - start) /
                              static_cast<double>(count));
  }
  volatile double keep = sink;
  (void)keep;
  return Median(ns_per_distance);
}

}  // namespace

void AddCostModelAudit(const tmerge::merge::PreparedVideo& video,
                       std::uint64_t seed, Report& report, std::ostream& out) {
  const tmerge::reid::CostModel model;
  double draw_ns = BetaDrawNs(seed);
  double distance_ns = DistanceNs(video);
  double draw_model_ns = model.per_sample_overhead_seconds * 1e9;
  double distance_model_ns = model.distance_seconds * 1e9;
  report.Add("core.beta_draw_ns", draw_ns, "ns", kRepeats);
  report.Add("costmodel.draw_ratio", draw_ns / draw_model_ns, "ratio",
             kRepeats, "measured / CostModel::per_sample_overhead_seconds");
  report.Add("reid.distance_ns", distance_ns, "ns", kRepeats);
  report.Add("costmodel.distance_ratio", distance_ns / distance_model_ns,
             "ratio", kRepeats, "measured / CostModel::distance_seconds");
  out << "=== cost-model audit (host wall time vs simulated charge) ===\n"
      << std::fixed << std::setprecision(1)
      << "  Thompson draw (Rng::Beta)   measured " << std::setw(9) << draw_ns
      << " ns   model " << std::setw(9) << draw_model_ns << " ns   ratio "
      << std::setprecision(4) << draw_ns / draw_model_ns << "\n"
      << std::setprecision(1)
      << "  feature distance            measured " << std::setw(9)
      << distance_ns << " ns   model " << std::setw(9) << distance_model_ns
      << " ns   ratio " << std::setprecision(6)
      << distance_ns / distance_model_ns << "\n"
      << std::defaultfloat << std::setprecision(6);
}

}  // namespace perfbench
