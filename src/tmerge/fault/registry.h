#ifndef TMERGE_FAULT_REGISTRY_H_
#define TMERGE_FAULT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "tmerge/core/mutex.h"
#include "tmerge/core/status.h"
#include "tmerge/core/thread_annotations.h"

namespace tmerge::fault {

/// Deterministic fault injection for TMerge's unreliable dependencies (the
/// ReID model above all — the whole system exists to ration that flaky,
/// expensive resource). A failpoint is a named site in library code (see
/// failpoint.h for the catalog and the TMERGE_FAILPOINT macro); arming it
/// with a probability makes the site fail on a schedule that is a pure
/// function of (registry seed, failpoint name, caller-supplied key).
///
/// Determinism: decisions are *keyed*, not sequenced. The caller passes a
/// 64-bit key identifying the logical operation (a detection id, a line
/// number, a submit ticket — mixed with the retry attempt where relevant),
/// and the verdict is splitmix64(seed ⊕ H(name) ⊕ key) compared against the
/// armed probability. Because the key is a property of the work item rather
/// than of execution order, the injected fault schedule is bit-identical
/// for every thread count and interleaving — the same guarantee the rest of
/// the pipeline makes (DESIGN.md "Threading model"). A dedicated splitmix64
/// stream (not core::Rng, which sits above this library in the link order)
/// also means arming a failpoint never perturbs any core::Rng sequence: a
/// faulted run and a clean run draw identical model/selector randomness.
///
/// No wall clock anywhere: latency faults report *simulated* seconds for
/// the caller to charge to its cost-model SimClock; nothing here sleeps.
///
/// Concurrency: Arm/Disarm/ShouldFail may race freely. The armed table is
/// guarded by mutex_; the common disarmed path is one relaxed atomic load.
struct FaultSpec {
  /// Probability in [0, 1] that an evaluation of this failpoint fires.
  double probability = 0.0;
  /// Simulated latency penalty (seconds) reported when the failpoint fires
  /// as a latency spike (LatencySpike); ignored by ShouldFail.
  double latency_seconds = 0.0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Arms `point` with `spec`. probability is clamped to [0, 1]; a negative
  /// latency is clamped to 0.
  void Arm(const std::string& point, const FaultSpec& spec)
      TMERGE_EXCLUDES(mutex_);

  /// Disarms one failpoint (no-op if not armed).
  void Disarm(const std::string& point) TMERGE_EXCLUDES(mutex_);

  /// Disarms everything and resets fire counts. Seed is kept.
  void Reset() TMERGE_EXCLUDES(mutex_);

  /// Sets the schedule seed. Same seed + same armed specs + same keys =>
  /// the identical fault schedule, which is how a failing run is replayed.
  void SetSeed(std::uint64_t seed);
  std::uint64_t seed() const;

  /// True if any failpoint is armed (one relaxed load; the reason the
  /// macros cost nothing in a clean process).
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Deterministic verdict for one evaluation of `point` identified by
  /// `key`. False when the point is not armed. Fires are counted (and
  /// recorded to the obs "fault.injected" counter when obs is enabled).
  bool ShouldFail(std::string_view point, std::uint64_t key)
      TMERGE_EXCLUDES(mutex_);

  /// Latency-spike variant: returns the armed latency_seconds when the
  /// keyed draw fires, 0.0 otherwise. The caller charges the returned
  /// simulated seconds to its own SimClock/meter; the registry never
  /// sleeps or reads a wall clock.
  double LatencySpike(std::string_view point, std::uint64_t key)
      TMERGE_EXCLUDES(mutex_);

  /// Observed fire count of one failpoint since the last Reset.
  std::int64_t fires(std::string_view point) const TMERGE_EXCLUDES(mutex_);

  /// Total fires across all failpoints since the last Reset.
  std::int64_t total_fires() const {
    return total_fires_.load(std::memory_order_relaxed);
  }

  /// Applies a ;-separated spec string, e.g.
  ///   "reid.embed=0.3;reid.latency=0.1@0.05;io.mot.corrupt_row=0.01"
  /// Each entry is point=probability with an optional @latency_seconds.
  /// Parsing is strict (full-token numbers, probability in [0, 1],
  /// latency >= 0); on any error nothing is armed and an InvalidArgument
  /// status describes the offending entry.
  core::Status ApplySpec(std::string_view spec) TMERGE_EXCLUDES(mutex_);

 private:
  struct Point {
    FaultSpec spec;
    std::int64_t fires = 0;
  };

  /// Looks up the armed spec; returns false when not armed.
  bool Lookup(std::string_view point, FaultSpec& spec) const
      TMERGE_EXCLUDES(mutex_);
  void CountFire(std::string_view point) TMERGE_EXCLUDES(mutex_);

  mutable core::Mutex mutex_;
  std::map<std::string, Point, std::less<>> points_ TMERGE_GUARDED_BY(mutex_);
  std::atomic<int> armed_count_{0};
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::int64_t> total_fires_{0};
};

/// The process-wide registry every TMERGE_FAILPOINT site consults.
Registry& GlobalRegistry();

namespace internal {

/// FNV-1a hash of a failpoint name.
std::uint64_t HashName(std::string_view name);

/// The uniform-in-[0,1) value the (seed, name, key) triple maps to: two
/// core::SplitMix64 rounds over the seed, the name's hash and the key.
double KeyedUniform(std::uint64_t seed, std::string_view name,
                    std::uint64_t key);

}  // namespace internal

}  // namespace tmerge::fault

#endif  // TMERGE_FAULT_REGISTRY_H_
