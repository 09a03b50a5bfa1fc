#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
long long NowNs();

/// One timed call at a layer boundary. `parent` is the id of the span that
/// was open on the same thread when this one began, or 0 for a root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  int layer = 0;
  long long start_ns = 0;
  long long end_ns = 0;
};

/// Process-wide, in-memory span store for the traced run. Each thread
/// appends to a buffer of its own (no lock on the recording path) and keeps
/// its open spans on a thread-local stack, so spans recorded on merge
/// workers nest under the worker's own enclosing span. A buffer that is
/// full drops further spans and counts them.
///
/// Drain() reads every thread's buffer: call it only while no thread is
/// recording (after the traced calls returned and their worker threads
/// were joined).
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Interns a layer name; the returned id is stable for the process.
  int Layer(const std::string& name);
  std::vector<std::string> LayerNames() const;

  void Start() { recording_.store(true, std::memory_order_relaxed); }
  void Stop() { recording_.store(false, std::memory_order_relaxed); }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Moves every recorded span out of the thread buffers.
  std::vector<Span> Drain();
  /// Spans dropped because a thread buffer was full, over the process.
  long long dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-thread buffer capacity in spans.
  static constexpr std::size_t kThreadCapacity = std::size_t{1} << 21;

 private:
  friend class ScopedSpan;
  SpanRecorder() = default;

  struct ThreadBuffer {
    std::vector<Span> spans;
  };

  std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(const Span& span);
  ThreadBuffer& LocalBuffer();

  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<long long> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // Guarded by mutex_.
  std::vector<std::string> layers_;                     // Guarded by mutex_.
};

/// Records one span around its scope while the recorder is on; a no-op
/// (one relaxed load) while it is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(int layer);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals, clipped to the span. A child whose parent was dropped counts
/// as a root. Parallel to `spans`.
std::vector<long long> SelfTimes(const std::vector<Span>& spans);

/// Per-layer sums over a set of spans.
struct LayerTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  long long count = 0;
};

/// Indexed by layer id (size = number of interned layers, at least one past
/// the largest layer id present).
std::vector<LayerTotals> SummarizeLayers(const std::vector<Span>& spans,
                                         std::size_t num_layers);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
