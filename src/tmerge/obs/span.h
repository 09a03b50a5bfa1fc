#ifndef TMERGE_OBS_SPAN_H_
#define TMERGE_OBS_SPAN_H_

#include "tmerge/obs/metrics.h"
#include "tmerge/obs/trace.h"
#include "tmerge/obs/trace_clock.h"

namespace tmerge::obs {

/// RAII scoped timer recording its lifetime into a duration histogram
/// (count, sum of seconds, latency distribution in one metric) and — when
/// the flight recorder is capturing — emitting a begin/end trace pair
/// under the same name, so every TMERGE_SPAN site shows up on the
/// chrome://tracing timeline for free. Metrics and tracing arm
/// independently at construction (obs::Enabled() vs
/// TraceRecorder::Default().recording()); a fully disarmed span does no
/// clock reads and records nothing.
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram& histogram, const char* trace_name = nullptr) {
    if (Enabled()) {
      histogram_ = &histogram;
    }
    if (trace_name != nullptr && TraceRecorder::Default().recording()) {
      trace_name_ = trace_name;
    }
    if (histogram_ != nullptr || trace_name_ != nullptr) {
      start_ns_ = TraceClockNanos();
    }
    if (trace_name_ != nullptr) {
      TraceRecorder::Default().RecordAt(start_ns_, trace_name_,
                                        TracePhase::kBegin);
    }
  }

  ~ScopedSpan() { Stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records now, disarms, and returns the measured seconds (0.0 if the
  /// span never armed or was already stopped).
  double Stop() {
    if (histogram_ == nullptr && trace_name_ == nullptr) return 0.0;
    std::int64_t end_ns = TraceClockNanos();
    double seconds = TraceClockSecondsBetween(start_ns_, end_ns);
    if (histogram_ != nullptr) {
      histogram_->Record(seconds);
      histogram_ = nullptr;
    }
    if (trace_name_ != nullptr) {
      TraceRecorder::Default().RecordAt(end_ns, trace_name_,
                                        TracePhase::kEnd);
      trace_name_ = nullptr;
    }
    return seconds;
  }

 private:
  Histogram* histogram_ = nullptr;
  const char* trace_name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace tmerge::obs

#define TMERGE_OBS_CONCAT_INNER(a, b) a##b
#define TMERGE_OBS_CONCAT(a, b) TMERGE_OBS_CONCAT_INNER(a, b)

/// Times the enclosing scope into the default registry's duration
/// histogram named `name` (a string literal; the metric is looked up once
/// per site via a static local) and, when the flight recorder is
/// capturing, emits a begin/end trace pair under the same name.
#define TMERGE_SPAN(name)                                                  \
  static ::tmerge::obs::Histogram& TMERGE_OBS_CONCAT(tmerge_span_metric_,  \
                                                     __LINE__) =           \
      ::tmerge::obs::DefaultRegistry().GetHistogram(                       \
          (name), ::tmerge::obs::DurationBounds());                        \
  ::tmerge::obs::ScopedSpan TMERGE_OBS_CONCAT(tmerge_span_, __LINE__)(     \
      TMERGE_OBS_CONCAT(tmerge_span_metric_, __LINE__), (name))

#endif  // TMERGE_OBS_SPAN_H_
