#include "tmerge/obs/trace.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "tmerge/core/mutex.h"

namespace tmerge::obs {

namespace {

std::size_t RoundUpPow2(std::size_t value) {
  std::size_t pow2 = 1;
  while (pow2 < value) {
    pow2 <<= 1;
  }
  return pow2;
}

// Recorder ids are handed out once and never reused, so a thread cache
// keyed by id can never alias a destroyed recorder (tests create and
// destroy local recorders freely).
std::uint64_t NextRecorderId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// One thread's ring. Every slot field is atomic, so concurrent snapshot
// reads are formally race-free; the per-slot `seq` word (a seqlock) is
// what makes them *consistent*: a reader only accepts a slot whose seq
// equals 2*(event_index+1) both before and after reading the fields,
// which rejects slots that are mid-write or were overwritten by a ring
// wrap between the two checks. The protocol uses no fences (GCC's TSan
// build rejects std::atomic_thread_fence under -Werror): the writer
// stores the odd seq relaxed, then every field with release; the reader
// loads every field with acquire. A reader that sees any field value of
// a newer write therefore also sees that write's odd seq on its re-check
// and discards the slot. On x86 these are all plain moves.
struct TraceRecorder::ThreadBuffer {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 2i+1 writing event i, 2(i+1) done.
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint8_t> phase{0};
    std::atomic<std::int64_t> steady_ns{0};
    std::atomic<double> sim_seconds{0.0};
    std::atomic<const char*> arg_key0{nullptr};
    std::atomic<std::int64_t> arg_value0{0};
    std::atomic<const char*> arg_key1{nullptr};
    std::atomic<std::int64_t> arg_value1{0};
  };

  ThreadBuffer(std::size_t capacity, std::int32_t index)
      : thread_index(index), slots(capacity) {}

  const std::int32_t thread_index;
  /// Events this thread has ever recorded here; slot i lives at
  /// i & (capacity-1). Advances only after the slot's seq is published.
  std::atomic<std::uint64_t> head{0};
  std::vector<Slot> slots;
};

TraceRecorder::TraceRecorder(const TraceRecorderOptions& options)
    : options_(options),
      capacity_(RoundUpPow2(std::max<std::size_t>(options.events_per_thread,
                                                  std::size_t{2}))),
      id_(NextRecorderId()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Default() {
  // Leaked like DefaultRegistry(): threads may record during static
  // destruction of other objects.
  static TraceRecorder* recorder =
      new TraceRecorder();  // tmerge-lint: allow(naked-new)
  return *recorder;
}

void TraceRecorder::Start() {
  Clear();
  recording_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Stop() {
  recording_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Clear() {
  core::MutexLock lock(mutex_);
  for (auto& buffer : buffers_) {
    // Resetting head is enough: readers bound themselves by head, so the
    // stale slots behind it become unreachable, and their stale seq words
    // can never match a post-clear event index until that index is
    // actually rewritten.
    buffer->head.store(0, std::memory_order_release);
  }
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  struct Cache {
    std::uint64_t recorder_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  // Cached per (thread, recorder id); ids are never reused, so a stale
  // entry for a destroyed recorder simply misses and re-registers.
  thread_local Cache cache;
  if (cache.recorder_id == id_) {
    return cache.buffer;
  }
  ThreadBuffer* buffer = nullptr;
  {
    core::MutexLock lock(mutex_);
    if (buffers_.size() < options_.max_threads) {
      buffers_.push_back(std::make_unique<ThreadBuffer>(
          capacity_, static_cast<std::int32_t>(buffers_.size())));
      buffer = buffers_.back().get();
    }
  }
  if (buffer == nullptr) {
    dropped_threads_.fetch_add(1, std::memory_order_relaxed);
  }
  cache = Cache{id_, buffer};
  return buffer;
}

void TraceRecorder::Record(const char* name, TracePhase phase,
                           double sim_seconds, TraceArg arg0, TraceArg arg1) {
  if (!recording()) {
    return;
  }
  RecordAt(TraceClockNanos(), name, phase, sim_seconds, arg0, arg1);
}

void TraceRecorder::RecordAt(std::int64_t steady_ns, const char* name,
                             TracePhase phase, double sim_seconds,
                             TraceArg arg0, TraceArg arg1) {
  ThreadBuffer* buffer = BufferForThisThread();
  if (buffer == nullptr) {
    return;  // Thread arrived after max_threads rings were handed out.
  }
  const std::uint64_t index = buffer->head.load(std::memory_order_relaxed);
  ThreadBuffer::Slot& slot = buffer->slots[index & (capacity_ - 1)];
  // Seqlock write protocol: mark the slot in-flight, publish each field
  // with release (so a reader that sees it also sees the mark), then
  // publish the even seq with release.
  slot.seq.store(2 * index + 1, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_release);
  slot.phase.store(static_cast<std::uint8_t>(phase),
                   std::memory_order_release);
  slot.steady_ns.store(steady_ns, std::memory_order_release);
  slot.sim_seconds.store(sim_seconds, std::memory_order_release);
  slot.arg_key0.store(arg0.key, std::memory_order_release);
  slot.arg_value0.store(arg0.value, std::memory_order_release);
  slot.arg_key1.store(arg1.key, std::memory_order_release);
  slot.arg_value1.store(arg1.value, std::memory_order_release);
  slot.seq.store(2 * (index + 1), std::memory_order_release);
  buffer->head.store(index + 1, std::memory_order_release);
}

TraceSnapshot TraceRecorder::Snapshot(std::size_t last_n_per_thread) const {
  struct Ordered {
    TraceEvent event;
    std::uint64_t order = 0;  ///< Per-thread record index, for tie-breaks.
  };
  std::vector<Ordered> ordered;
  TraceSnapshot snapshot;
  snapshot.dropped_threads = dropped_threads_.load(std::memory_order_relaxed);
  {
    core::MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::uint64_t head = buffer->head.load(std::memory_order_acquire);
      snapshot.total_recorded += static_cast<std::int64_t>(head);
      std::uint64_t lo = head > capacity_ ? head - capacity_ : 0;
      if (last_n_per_thread < head - lo) {
        lo = head - last_n_per_thread;
      }
      for (std::uint64_t i = lo; i < head; ++i) {
        const ThreadBuffer::Slot& slot = buffer->slots[i & (capacity_ - 1)];
        const std::uint64_t want = 2 * (i + 1);
        if (slot.seq.load(std::memory_order_acquire) != want) {
          continue;  // Mid-write or already overwritten by a wrap.
        }
        Ordered entry;
        entry.order = i;
        // Acquire loads: seeing a newer write's field value makes its odd
        // seq visible to the re-check below.
        entry.event.name = slot.name.load(std::memory_order_acquire);
        entry.event.phase = static_cast<TracePhase>(
            slot.phase.load(std::memory_order_acquire));
        entry.event.thread_index = buffer->thread_index;
        entry.event.steady_ns =
            slot.steady_ns.load(std::memory_order_acquire);
        entry.event.sim_seconds =
            slot.sim_seconds.load(std::memory_order_acquire);
        entry.event.args[0] =
            TraceArg{slot.arg_key0.load(std::memory_order_acquire),
                     slot.arg_value0.load(std::memory_order_acquire)};
        entry.event.args[1] =
            TraceArg{slot.arg_key1.load(std::memory_order_acquire),
                     slot.arg_value1.load(std::memory_order_acquire)};
        if (slot.seq.load(std::memory_order_relaxed) != want) {
          continue;  // Overwritten while we were reading: discard.
        }
        ordered.push_back(entry);
      }
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Ordered& a, const Ordered& b) {
              if (a.event.steady_ns != b.event.steady_ns) {
                return a.event.steady_ns < b.event.steady_ns;
              }
              if (a.event.thread_index != b.event.thread_index) {
                return a.event.thread_index < b.event.thread_index;
              }
              return a.order < b.order;
            });
  snapshot.events.reserve(ordered.size());
  for (const Ordered& entry : ordered) {
    snapshot.events.push_back(entry.event);
  }
  return snapshot;
}

std::size_t TraceRecorder::ApproxMemoryBytes() const {
  core::MutexLock lock(mutex_);
  return buffers_.size() * capacity_ * sizeof(ThreadBuffer::Slot);
}

namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                          sizeof(buf) - 1));
  }
}

char PhaseChar(TracePhase phase) {
  switch (phase) {
    case TracePhase::kBegin:
      return 'B';
    case TracePhase::kEnd:
      return 'E';
    case TracePhase::kInstant:
      return 'i';
    case TracePhase::kCounter:
      return 'C';
  }
  return 'i';
}

}  // namespace

std::string ExportChromeTrace(const TraceSnapshot& snapshot) {
  // Chrome trace-event "JSON Object Format": a traceEvents array of
  // {name, cat, ph, pid, tid, ts} records, ts in microseconds. Timestamps
  // are normalized to the snapshot's earliest event so timelines start at
  // zero regardless of the steady clock's epoch.
  std::int64_t min_ns = 0;
  if (!snapshot.events.empty()) {
    min_ns = snapshot.events.front().steady_ns;
    for (const TraceEvent& event : snapshot.events) {
      min_ns = std::min(min_ns, event.steady_ns);
    }
  }
  std::string out;
  out.reserve(128 + snapshot.events.size() * 96);
  out += "{\"traceEvents\":[";
  std::int64_t exported = 0;
  for (const TraceEvent& event : snapshot.events) {
    if (event.name == nullptr) {
      continue;  // A torn or cleared slot that slipped through: drop it.
    }
    out += exported++ > 0 ? ",\n" : "\n";
    out += "{\"name\":\"";
    out += event.name;
    AppendF(out, "\",\"cat\":\"tmerge\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d",
            PhaseChar(event.phase), event.thread_index);
    AppendF(out, ",\"ts\":%.3f",
            static_cast<double>(event.steady_ns - min_ns) / 1000.0);
    if (event.phase == TracePhase::kInstant) {
      out += ",\"s\":\"t\"";  // Thread-scoped instant (Perfetto arrow tick).
    }
    const bool has_sim = event.sim_seconds != kTraceNoSimTime;
    const bool has_args =
        has_sim || event.args[0].key != nullptr || event.args[1].key != nullptr;
    if (has_args) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& arg : event.args) {
        if (arg.key == nullptr) {
          continue;
        }
        if (!first_arg) {
          out += ",";
        }
        first_arg = false;
        out += "\"";
        out += arg.key;
        AppendF(out, "\":%lld", static_cast<long long>(arg.value));
      }
      if (has_sim) {
        if (!first_arg) {
          out += ",";
        }
        AppendF(out, "\"sim_s\":%.9g", event.sim_seconds);
      }
      out += "}";
    }
    out += "}";
  }
  // How much the rings kept: a wrapped ring or a last-N snapshot exports
  // fewer events than were recorded, and dropped threads recorded none.
  AppendF(out,
          "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":%lld,"
          "\"exported\":%lld,\"dropped_threads\":%lld}}\n",
          static_cast<long long>(snapshot.total_recorded),
          static_cast<long long>(exported),
          static_cast<long long>(snapshot.dropped_threads));
  return out;
}

void WriteChromeTrace(std::ostream& os, const TraceSnapshot& snapshot) {
  os << ExportChromeTrace(snapshot);
}

bool WriteChromeTraceFile(const std::string& path,
                          const TraceSnapshot& snapshot) {
  std::ofstream os(path, std::ios::out | std::ios::trunc);
  if (!os) {
    return false;
  }
  os << ExportChromeTrace(snapshot);
  os.flush();
  return os.good();
}

}  // namespace tmerge::obs
