#ifndef TMERGE_OBS_METRICS_H_
#define TMERGE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

// Header-only annotated lock wrappers. tmerge_obs stays std-only at link
// time (no dependency on tmerge_core's objects); these two core headers are
// freestanding, so including them creates no layering cycle.
#include "tmerge/core/mutex.h"
#include "tmerge/core/thread_annotations.h"

namespace tmerge::obs {

namespace internal {

/// Global runtime switch backing Enabled(). Off by default: a library user
/// who never touches tmerge::obs pays only one relaxed load per
/// instrumentation site.
extern std::atomic<bool> g_enabled;

/// Number of per-metric shards. Each writer thread is pinned to one shard
/// (round-robin by thread), so concurrent updates of one metric from up to
/// kShards threads never contend on a cache line.
inline constexpr std::size_t kShards = 8;

/// This thread's shard index in [0, kShards).
std::size_t ShardIndex();

/// One cache-line-sized counter cell, so neighbouring shards never falsely
/// share a line.
struct alignas(64) CounterCell {
  std::atomic<std::int64_t> value{0};
};

/// One cache-line-sized accumulator cell for double-valued sums.
struct alignas(64) SumCell {
  std::atomic<double> value{0.0};
};

/// Lock-free add on an atomic double (CAS loop; fetch_add on double is
/// C++20 but not yet universally lock-free).
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// True when instrumentation is runtime-enabled. Every metric write checks
/// this first, so a disabled process does no atomic RMW work and no clock
/// reads — the near-zero-overhead off state the benches' overhead guard
/// relies on. It is the only off switch: every instrumentation site is
/// always compiled in.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the runtime switch. Typically called once at startup (benches read
/// the TMERGE_OBS environment variable; see bench_util).
void SetEnabled(bool enabled);

/// Monotonically increasing integer metric. Writes are relaxed atomic adds
/// on a per-thread shard; Value() sums the shards, so a read concurrent
/// with writes sees some valid intermediate total.
class Counter {
 public:
  void Add(std::int64_t delta = 1) {
    if (!Enabled()) return;
    cells_[internal::ShardIndex()].value.fetch_add(delta,
                                                   std::memory_order_relaxed);
  }

  std::int64_t Value() const {
    std::int64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<internal::CounterCell, internal::kShards> cells_;
};

/// Last-write-wins double metric (queue depths, configuration values).
class Gauge {
 public:
  void Set(double value) {
    if (!Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// plus an implicit +Inf overflow bucket, Prometheus-style. Each shard owns
/// a private run of bucket cells and a sum cell; Record is two relaxed
/// atomic ops on this thread's shard. Count is derived from the buckets
/// (every recorded value lands in exactly one).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value) {
    if (!Enabled()) return;
    std::size_t shard = internal::ShardIndex();
    buckets_[shard * stride_ + BucketOf(value)].fetch_add(
        1, std::memory_order_relaxed);
    internal::AtomicAddDouble(sums_[shard].value, value);
  }

  const std::vector<double>& bounds() const { return bounds_; }

  /// Per-bucket counts merged across shards; size bounds().size() + 1,
  /// last entry the +Inf bucket.
  std::vector<std::int64_t> BucketCounts() const;

  std::int64_t Count() const;
  double Sum() const;
  void Reset();

 private:
  std::size_t BucketOf(double value) const;

  std::vector<double> bounds_;
  std::size_t stride_;  // bounds_.size() + 1, padded to a cache line.
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::array<internal::SumCell, internal::kShards> sums_;
};

/// Default bucket bounds for duration histograms (spans): 1 microsecond to
/// 100 seconds, decade-spaced.
std::vector<double> DurationBounds();

/// Default bucket bounds for count-valued histograms (iterations per
/// window, posterior pseudo-counts): 1 to 1e6, roughly decade-spaced.
std::vector<double> CountBounds();

/// Read-side copy of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;
  /// bounds.size() + 1 entries; last is the +Inf overflow bucket.
  std::vector<std::int64_t> bucket_counts;
  std::int64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of a whole registry, ordered by name (so exports and
/// golden tests are deterministic). Mergeable: shards, processes or repeat
/// runs can be combined by summation.
struct RegistrySnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Adds `other` into this snapshot: counters and histogram buckets/sums
  /// add; gauges take `other`'s value (last write wins). Histograms present
  /// in both must have identical bounds.
  void MergeFrom(const RegistrySnapshot& other);
};

/// Thread-safe registry of named metrics. Registration (GetCounter etc.)
/// takes mutex_ — the annotated lock guarding only the name maps — and
/// returns a reference that stays valid for the registry's lifetime, so
/// instrumentation sites look a metric up once (a static local) and update
/// it lock-free afterwards: the Counter/Gauge/Histogram fast paths above
/// are sharded relaxed atomics and never touch mutex_. Names are lowercase
/// dotted paths; histograms of durations end in ".seconds" (see DESIGN.md
/// "Observability").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. A histogram's bounds are fixed by
  /// its first registration; later calls ignore the argument.
  Counter& GetCounter(const std::string& name) TMERGE_EXCLUDES(mutex_);
  Gauge& GetGauge(const std::string& name) TMERGE_EXCLUDES(mutex_);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = DurationBounds())
      TMERGE_EXCLUDES(mutex_);

  RegistrySnapshot Snapshot() const TMERGE_EXCLUDES(mutex_);

  /// Zeroes every metric, keeping registrations (and thus outstanding
  /// references) intact.
  void Reset() TMERGE_EXCLUDES(mutex_);

 private:
  mutable core::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      TMERGE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      TMERGE_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      TMERGE_GUARDED_BY(mutex_);
};

/// The process-wide registry all built-in instrumentation records into.
MetricsRegistry& DefaultRegistry();

/// One metric label (Prometheus key/value pair). Keys must be
/// `[a-zA-Z_][a-zA-Z0-9_]*`; values are arbitrary (quotes and backslashes
/// are escaped on formatting).
struct MetricLabel {
  std::string key;
  std::string value;
};

/// Builds a labeled metric name: the base name plus a canonical
/// `{key="value",...}` suffix, e.g.
///
///   LabeledName("stream.camera.queued_frames", {{"camera", "3"}})
///     == "stream.camera.queued_frames{camera=\"3\"}"
///
/// The result is an ordinary registry name — labeled variants of a metric
/// are independent Counter/Gauge/Histogram instances — and SnapshotToJson
/// keys each by its full name, escaping the embedded quotes. Labels are
/// emitted in the order given; call sites should pick one order per
/// family so variants sort adjacently.
std::string LabeledName(const std::string& base,
                        const std::vector<MetricLabel>& labels);

}  // namespace tmerge::obs

#endif  // TMERGE_OBS_METRICS_H_
