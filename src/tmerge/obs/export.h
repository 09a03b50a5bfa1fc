#ifndef TMERGE_OBS_EXPORT_H_
#define TMERGE_OBS_EXPORT_H_

#include <string>

#include "tmerge/obs/metrics.h"

namespace tmerge::obs {

/// Serializes a snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":N,"sum":S,
///                          "buckets":[{"le":0.001,"count":2},...,
///                                     {"le":"+Inf","count":0}]}}}
/// Keys are emitted in name order, so equal snapshots serialize equally
/// (golden-testable, diffable across runs).
std::string SnapshotToJson(const RegistrySnapshot& snapshot);

}  // namespace tmerge::obs

#endif  // TMERGE_OBS_EXPORT_H_
