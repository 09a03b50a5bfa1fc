#ifndef TMERGE_OBS_TRACE_H_
#define TMERGE_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

// Header-only annotated lock wrappers, freestanding like metrics.h's
// includes — tmerge_obs stays std-only at link time.
#include "tmerge/core/mutex.h"
#include "tmerge/core/thread_annotations.h"
#include "tmerge/obs/trace_clock.h"

namespace tmerge::obs {

/// Chrome-trace phases the recorder understands. kBegin/kEnd bracket a
/// duration on one thread's timeline ("B"/"E"), kInstant marks a point
/// ("i"), kCounter samples a value series ("C").
enum class TracePhase : std::uint8_t {
  kBegin = 0,
  kEnd = 1,
  kInstant = 2,
  kCounter = 3,
};

/// One optional integer argument attached to an event (camera id, window
/// index, pair count). `key` must be a string literal (or otherwise
/// outlive the recorder) — events store the pointer, never a copy.
struct TraceArg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

/// Sentinel for "no simulated timestamp": events record wall (trace-clock)
/// time always, sim time only when the caller has one in hand.
inline constexpr double kTraceNoSimTime =
    -std::numeric_limits<double>::infinity();

/// One decoded flight-recorder event (read side; the ring slots themselves
/// are atomic fields, see trace.cc).
struct TraceEvent {
  const char* name = nullptr;  ///< Static literal, lowercase dotted.
  TracePhase phase = TracePhase::kInstant;
  /// Registration-order index of the recording thread (stable within one
  /// recorder, exported as the Chrome-trace tid).
  std::int32_t thread_index = 0;
  std::int64_t steady_ns = 0;           ///< TraceClockNanos() at record.
  double sim_seconds = kTraceNoSimTime; ///< kTraceNoSimTime when absent.
  TraceArg args[2];
};

/// Sizing of one recorder. Memory is strictly bounded:
///   max_threads * RoundUpPow2(events_per_thread) * sizeof(slot)
/// (sizeof(slot) is 72 bytes; TraceRecorder::ApproxMemoryBytes() reports
/// the exact figure). Threads beyond max_threads record nothing and are
/// counted in TraceSnapshot::dropped_threads.
struct TraceRecorderOptions {
  std::size_t events_per_thread = 8192;
  std::size_t max_threads = 128;
};

/// Read-side copy of the recorder: events merged across threads, ordered
/// by (steady_ns, thread registration order, per-thread record order).
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  /// Events ever recorded, including ones the rings have since overwritten.
  std::int64_t total_recorded = 0;
  /// Threads that arrived after max_threads buffers were handed out; their
  /// events were dropped entirely.
  std::int64_t dropped_threads = 0;
};

/// Lock-free flight recorder: each recording thread owns a fixed-size ring
/// of event slots and publishes into it with relaxed atomic stores plus a
/// per-slot sequence word (a seqlock), so the hot path is wait-free and
/// never blocks on — or is blocked by — a reader. Readers (Snapshot, the
/// post-mortem dumps) run concurrently with writers and simply skip slots
/// that are mid-write or already overwritten; under wraparound they see
/// the newest `events_per_thread` events per thread, which is the flight-
/// recorder contract.
///
/// Recording is default-off behind the same style of gate as
/// obs::SetEnabled: one relaxed load per instrumentation site while
/// stopped. Event names and arg keys must be string literals — slots
/// store pointers, never copies.
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceRecorderOptions& options = {});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder the TMERGE_TRACE_* macros and span
  /// integration record into. Leaked like DefaultRegistry().
  static TraceRecorder& Default();

  /// Clears every ring and enables recording.
  void Start();

  /// Disables recording. Buffered events stay readable.
  void Stop();

  /// True while events are being captured. One relaxed load — the only
  /// cost a non-tracing process pays per instrumentation site.
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Resets every ring (drops buffered events) without toggling the gate.
  /// Safe concurrently with writers; a handful of in-flight events may
  /// survive the clear.
  void Clear();

  /// Records one event on the calling thread's ring. No-op while stopped.
  void Record(const char* name, TracePhase phase,
              double sim_seconds = kTraceNoSimTime, TraceArg arg0 = {},
              TraceArg arg1 = {});

  /// Test hook: like Record but with an explicit trace-clock timestamp,
  /// so golden exports are byte-stable.
  void RecordAt(std::int64_t steady_ns, const char* name, TracePhase phase,
                double sim_seconds = kTraceNoSimTime, TraceArg arg0 = {},
                TraceArg arg1 = {});

  /// Copies out the newest `last_n_per_thread` events of every thread
  /// (all of them by default), merged and time-ordered.
  TraceSnapshot Snapshot(
      std::size_t last_n_per_thread = std::numeric_limits<std::size_t>::max())
      const TMERGE_EXCLUDES(mutex_);

  /// Exact bytes held in ring slots right now (registered threads only).
  std::size_t ApproxMemoryBytes() const TMERGE_EXCLUDES(mutex_);

  const TraceRecorderOptions& options() const { return options_; }

 private:
  struct ThreadBuffer;

  /// This thread's buffer in this recorder (registering it on first use),
  /// or nullptr once max_threads buffers exist.
  ThreadBuffer* BufferForThisThread() TMERGE_EXCLUDES(mutex_);

  const TraceRecorderOptions options_;
  const std::size_t capacity_;  ///< events_per_thread rounded up to 2^k.
  const std::uint64_t id_;      ///< Process-unique, keys thread caches.
  std::atomic<bool> recording_{false};
  std::atomic<std::int64_t> dropped_threads_{0};

  mutable core::Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      TMERGE_GUARDED_BY(mutex_);
};

/// Serializes a snapshot in Chrome trace-event JSON (the "JSON Array
/// Format" wrapped in {"traceEvents": [...]}), loadable in chrome://tracing
/// and Perfetto. Timestamps are microseconds relative to the snapshot's
/// earliest event; events with a simulated timestamp carry it as a
/// "sim_s" arg. A trailing "otherData" object reports how much the rings
/// kept: {"recorded": total_recorded, "exported": events written,
/// "dropped_threads": dropped_threads}. Deterministic for a deterministic
/// snapshot (golden-testable).
std::string ExportChromeTrace(const TraceSnapshot& snapshot);

/// Streams ExportChromeTrace (for benches writing trace files).
void WriteChromeTrace(std::ostream& os, const TraceSnapshot& snapshot);

/// Writes ExportChromeTrace of `snapshot` to `path`. Returns false on I/O
/// failure (callers decide whether that is fatal; post-mortem dumps warn
/// and continue).
bool WriteChromeTraceFile(const std::string& path,
                          const TraceSnapshot& snapshot);

/// Convenience wrappers the macros expand to: gate check + Default()
/// record in one call.
inline void TraceInstant(const char* name,
                         double sim_seconds = kTraceNoSimTime,
                         TraceArg arg0 = {}, TraceArg arg1 = {}) {
  TraceRecorder& recorder = TraceRecorder::Default();
  if (recorder.recording()) {
    recorder.Record(name, TracePhase::kInstant, sim_seconds, arg0, arg1);
  }
}

inline void TraceCounter(const char* name, std::int64_t value,
                         double sim_seconds = kTraceNoSimTime) {
  TraceRecorder& recorder = TraceRecorder::Default();
  if (recorder.recording()) {
    recorder.Record(name, TracePhase::kCounter, sim_seconds,
                    TraceArg{"value", value});
  }
}

/// RAII begin/end pair on the default recorder. Arms only if recording at
/// construction; a disarmed scope does no clock reads and records nothing.
/// Args are attached to both the begin and end events.
class TraceScope {
 public:
  explicit TraceScope(const char* name,
                      double sim_seconds = kTraceNoSimTime,
                      TraceArg arg0 = {}, TraceArg arg1 = {}) {
    TraceRecorder& recorder = TraceRecorder::Default();
    if (recorder.recording()) {
      name_ = name;
      arg0_ = arg0;
      arg1_ = arg1;
      recorder.Record(name, TracePhase::kBegin, sim_seconds, arg0, arg1);
    }
  }

  ~TraceScope() {
    if (name_ != nullptr) {
      TraceRecorder::Default().Record(name_, TracePhase::kEnd,
                                      kTraceNoSimTime, arg0_, arg1_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  TraceArg arg0_;
  TraceArg arg1_;
};

}  // namespace tmerge::obs

// Trace instrumentation macros. Usage:
//
//   TMERGE_TRACE_SCOPE("stream.merge_job.run");                // B/E pair
//   TMERGE_TRACE_SCOPE("stream.frame.ingest", now_seconds,
//                      {"camera", camera_id});                 // with args
//   TMERGE_TRACE_INSTANT("stream.window.close", now_seconds,
//                        {"camera", id}, {"window", w});
//   TMERGE_TRACE_COUNTER("stream.queued_frames", depth);
#define TMERGE_TRACE_CONCAT_INNER(a, b) a##b
#define TMERGE_TRACE_CONCAT(a, b) TMERGE_TRACE_CONCAT_INNER(a, b)

#define TMERGE_TRACE_SCOPE(...)                         \
  ::tmerge::obs::TraceScope TMERGE_TRACE_CONCAT(        \
      tmerge_trace_scope_, __LINE__)(__VA_ARGS__)

#define TMERGE_TRACE_INSTANT(...) ::tmerge::obs::TraceInstant(__VA_ARGS__)

#define TMERGE_TRACE_COUNTER(...) ::tmerge::obs::TraceCounter(__VA_ARGS__)

#endif  // TMERGE_OBS_TRACE_H_
