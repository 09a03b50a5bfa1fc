#ifndef TMERGE_REID_REID_GUARD_H_
#define TMERGE_REID_REID_GUARD_H_

#include <cstdint>
#include <vector>

#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/reid_model.h"

namespace tmerge::reid {

/// Circuit-breaker policy for fault-tolerant ReID access (DESIGN.md "Fault
/// model & degraded mode"). The retry count and backoff are constants in
/// reid_guard.cc. All time is simulated (charged to the InferenceMeter's
/// SimClock); nothing here ever sleeps.
struct ReidFaultPolicy {
  /// Consecutive retry-exhausted pulls that open the per-window circuit
  /// breaker. Once open it stays open for the rest of the window: further
  /// pulls fail immediately without attempting inference, and the window
  /// is reported degraded. Zero or negative never opens the breaker.
  int breaker_failure_threshold = 8;
};

/// Per-window fault-tolerance wrapper over FeatureCache: bounded retry
/// with deterministic sim-clock backoff plus a circuit breaker. Selectors
/// pull features through a guard instead of the cache directly; an invalid
/// view return is a *failed pull* — the selector counts it and charges it
/// to the budget but must not update posteriors from it (the degraded
/// mode's safety rule; merge::internal::ArmTable applies it).
///
/// With no failpoints armed every pull succeeds on the first attempt and
/// the meter sees exactly the charges GetOrEmbed / GetOrEmbedBatch would
/// have produced, bit for bit.
///
/// Thread-confined like the FeatureCache it wraps: one guard per window,
/// owned by the worker evaluating that window.
class ReidGuard {
 public:
  ReidGuard(const ReidFaultPolicy& policy, FeatureCache& cache,
            const ReidModel& model, InferenceMeter& meter)
      : policy_(policy), cache_(cache), model_(model), meter_(meter) {}

  /// Pulls one feature, retrying per policy. Returns an invalid view when
  /// every attempt failed or the breaker is open (an open breaker charges
  /// nothing — the call never reaches the model).
  FeatureView TryGet(const CropRef& crop);

  /// Batched pull: one result per crop, invalid views for failed pulls.
  /// Retry rounds re-batch only the failed crops under a fresh salt.
  std::vector<FeatureView> TryGetBatch(const std::vector<CropRef>& crops);

  /// True once the breaker has opened; the window is degraded from that
  /// point on.
  bool breaker_open() const { return breaker_open_; }

  /// Retry attempts made (not counting first attempts).
  std::int64_t retries() const { return retries_; }

 private:
  /// Tracks consecutive retry-exhausted failures and opens the breaker at
  /// the policy threshold.
  void RecordOutcome(bool success);

  ReidFaultPolicy policy_;
  FeatureCache& cache_;
  const ReidModel& model_;
  InferenceMeter& meter_;
  bool breaker_open_ = false;
  int consecutive_failures_ = 0;
  std::int64_t retries_ = 0;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_REID_GUARD_H_
