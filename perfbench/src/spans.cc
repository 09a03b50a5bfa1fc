#include "spans.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "stats.h"

namespace perfbench {
namespace {

thread_local std::vector<std::uint64_t> t_open_spans;

}  // namespace

long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();  // Never destroyed.
  return *recorder;
}

int SpanRecorder::Layer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find(layers_.begin(), layers_.end(), name);
  if (it != layers_.end()) return static_cast<int>(it - layers_.begin());
  layers_.push_back(name);
  return static_cast<int>(layers_.size()) - 1;
}

std::vector<std::string> SpanRecorder::LayerNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return layers_;
}

SpanRecorder::ThreadBuffer& SpanRecorder::LocalBuffer() {
  // Buffers are owned by the recorder, so they outlive the thread that
  // filled them; Drain reads them after the thread has been joined.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void SpanRecorder::Record(const Span& span) {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.spans.size() >= kThreadCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(span);
}

std::vector<Span> SpanRecorder::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    // Release the storage too: buffers of joined worker threads are never
    // written again.
    std::vector<Span>().swap(buffer->spans);
  }
  return all;
}

ScopedSpan::ScopedSpan(int layer) {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (!recorder.recording()) return;
  active_ = true;
  span_.id = recorder.NextId();
  span_.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  span_.layer = layer;
  t_open_spans.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_open_spans.pop_back();
  SpanRecorder::Get().Record(span_);
}

std::vector<long long> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) continue;
    children[parent->second].push_back({span.start_ns, span.end_ns});
  }
  std::vector<long long> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Interval bounds{spans[i].start_ns, spans[i].end_ns};
    self[i] = (bounds.end - bounds.start) -
              CoveredLength(std::move(children[i]), bounds);
  }
  return self;
}

std::vector<LayerTotals> SummarizeLayers(const std::vector<Span>& spans,
                                         std::size_t num_layers) {
  std::vector<long long> self = SelfTimes(spans);
  std::vector<LayerTotals> totals(num_layers);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t layer = static_cast<std::size_t>(spans[i].layer);
    if (layer >= totals.size()) totals.resize(layer + 1);
    totals[layer].total_s += 1e-9 * static_cast<double>(spans[i].end_ns -
                                                        spans[i].start_ns);
    totals[layer].self_s += 1e-9 * static_cast<double>(self[i]);
    ++totals[layer].count;
  }
  return totals;
}

}  // namespace perfbench
