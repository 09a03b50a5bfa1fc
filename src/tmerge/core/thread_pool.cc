#include "tmerge/core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <utility>

#include "tmerge/core/mutex.h"
#include "tmerge/core/thread_annotations.h"
#include "tmerge/fault/failpoint.h"
#include "tmerge/obs/span.h"

namespace tmerge::core {

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

/// Wraps a submitted task so its queue wait (enqueue -> dequeue) and busy
/// time (execution) land in the pool's histograms. Only called when
/// instrumentation is runtime-enabled, so the disabled hot path pays one
/// branch and no clock reads.
std::function<void()> InstrumentTask(std::function<void()> task) {
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& tasks = registry.GetCounter("core.pool.tasks");
  static obs::Histogram& queue_wait =
      registry.GetHistogram("core.pool.queue_wait.seconds");
  static obs::Histogram& busy =
      registry.GetHistogram("core.pool.busy.seconds");
  std::int64_t enqueued_ns = obs::TraceClockNanos();
  return [task = std::move(task), enqueued_ns] {
    std::int64_t started_ns = obs::TraceClockNanos();
    queue_wait.Record(obs::TraceClockSecondsBetween(enqueued_ns, started_ns));
    tasks.Add();
    task();
    busy.Record(
        obs::TraceClockSecondsBetween(started_ns, obs::TraceClockNanos()));
  };
}

}  // namespace

/// Shared state of one ParallelFor call. Lives on the calling thread's
/// stack; workers only touch it through the tasks submitted for this call,
/// all of which complete (and are counted out) before ParallelFor returns.
struct ThreadPool::ForLoopState {
  std::atomic<std::int64_t> next;
  std::int64_t end;
  const std::function<void(std::int64_t)>* fn;

  Mutex mutex;
  CondVar done;
  int active_helpers TMERGE_GUARDED_BY(mutex) = 0;
  std::exception_ptr error TMERGE_GUARDED_BY(mutex);

  /// Claims and runs indices until the range (or the loop, on error) is
  /// exhausted. Returns on the first captured exception.
  void RunLoop() TMERGE_EXCLUDES(mutex) {
    for (;;) {
      std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        (*fn)(i);
      } catch (...) {
        MutexLock lock(mutex);
        if (!error) error = std::current_exception();
        // Park the counter at the end so other participants stop claiming.
        next.store(end, std::memory_order_relaxed);
        return;
      }
      MutexLock lock(mutex);
      if (error) return;
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  int workers = ResolveNumThreads(num_threads);
  obs::DefaultRegistry()
      .GetGauge("core.pool.workers")
      .Set(static_cast<double>(workers));
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    queue_.clear();
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

Status ThreadPool::Submit(std::function<void()> task) {
  std::uint64_t ticket =
      submit_tickets_.fetch_add(1, std::memory_order_relaxed);
  if (TMERGE_FAILPOINT("core.pool.submit", ticket)) {
    return Status::Unavailable("injected task rejection (submit ticket " +
                               std::to_string(ticket) + ")");
  }
  if (obs::Enabled()) task = InstrumentTask(std::move(task));
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.NotifyOne();
  return Status::Ok();
}

bool ThreadPool::InWorkerThread() const {
  std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // An explicit wait loop (not the predicate overload): the analysis
      // can then see stopping_ / queue_ are only touched under mutex_.
      while (!stopping_ && queue_.empty()) wake_.Wait(mutex_);
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& fn) {
  if (end <= begin) return;
  std::int64_t count = end - begin;
  // Inline paths: trivial ranges, and reentrant calls from a worker (the
  // worker would otherwise block waiting on tasks queued behind itself).
  if (count == 1 || workers_.empty() || InWorkerThread()) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  ForLoopState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.fn = &fn;

  // The calling thread participates too, so helpers beyond count-1 would
  // only wake to find the range drained.
  int helpers = static_cast<int>(
      std::min<std::int64_t>(num_workers(), count - 1));
  {
    MutexLock lock(state.mutex);
    state.active_helpers = helpers;
  }
  for (int h = 0; h < helpers; ++h) {
    Status submitted = Submit([&state] {
      state.RunLoop();
      MutexLock lock(state.mutex);
      if (--state.active_helpers == 0) state.done.NotifyAll();
    });
    if (!submitted.ok()) {
      // Rejected helper (injected executor saturation): the remaining
      // participants — at minimum the calling thread below — still claim
      // every index, so the loop completes with reduced parallelism.
      MutexLock lock(state.mutex);
      --state.active_helpers;
    }
  }

  state.RunLoop();
  MutexLock lock(state.mutex);
  while (state.active_helpers != 0) state.done.Wait(state.mutex);
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace tmerge::core
