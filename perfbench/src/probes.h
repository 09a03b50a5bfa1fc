#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <iosfwd>

#include "report.h"
#include "tmerge/merge/pipeline.h"

namespace perfbench {

/// Cost-model audit: times the two host operations whose cost the
/// simulated FPS takes from reid::CostModel constants, and reports each
/// beside its constant:
///   core.beta_draw_ns    one core::Rng::Beta draw over the shape range a
///                        Thompson posterior moves through, against
///                        per_sample_overhead_seconds (charged per draw);
///   reid.distance_ns     one ReidModel::NormalizedDistance on FeatureViews
///                        of `video`'s crops, against distance_seconds;
/// plus costmodel.draw_ratio and costmodel.distance_ratio (measured over
/// modelled). Each timing is the median of several repeats.
void AddCostModelAudit(const tmerge::merge::PreparedVideo& video,
                       std::uint64_t seed, Report& report, std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
