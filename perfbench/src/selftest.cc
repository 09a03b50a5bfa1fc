// Unit checks of the benchmark's own arithmetic: the tail-percentile rule,
// interval unions, per-span self time (nested and overlapping children),
// and the thread-local parent stack of the span recorder. Exits non-zero
// on the first failed check.

#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    ++g_failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedian() {
  using perfbench::Median;
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3, 1, 2}) == 2.0, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle two");
}

void TestTail() {
  using perfbench::TailOf;
  // 1..100: rank 90 has exactly ten samples (91..100) beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  perfbench::Tail tail = TailOf(hundred);
  Expect(tail.valid, "100 samples support a tail");
  Expect(tail.value == 90.0, "tail of 1..100 is the 90th value");
  Expect(Near(tail.percentile, 90.0), "tail of 100 samples is p90");
  Expect(tail.samples == 100, "tail keeps the sample count");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  tail = TailOf(thousand);
  Expect(tail.value == 990.0 && Near(tail.percentile, 99.0),
         "1000 samples give p99");

  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  tail = TailOf(eleven);
  Expect(tail.valid && tail.value == 1.0, "11 samples: only the minimum has ten beyond it");

  tail = TailOf({5, 7, 6});
  Expect(!tail.valid && tail.value == 7.0,
         "fewer than 11 samples fall back to the maximum, flagged");
  tail = TailOf({});
  Expect(!tail.valid && tail.samples == 0, "empty sample");
}

void TestCoveredLength() {
  using perfbench::CoveredLength;
  using perfbench::Interval;
  Expect(CoveredLength({}, {0, 100}) == 0, "no intervals cover nothing");
  Expect(CoveredLength({{10, 20}, {30, 40}}, {0, 100}) == 20, "disjoint");
  Expect(CoveredLength({{10, 30}, {20, 40}}, {0, 100}) == 30, "overlapping");
  Expect(CoveredLength({{10, 50}, {20, 30}}, {0, 100}) == 40, "nested");
  Expect(CoveredLength({{10, 20}, {20, 30}}, {0, 100}) == 20, "touching");
  Expect(CoveredLength({{-10, 20}, {90, 150}}, {0, 100}) == 30,
         "clipped to the bounds");
  Expect(CoveredLength({{200, 300}}, {0, 100}) == 0, "outside the bounds");
}

void TestSelfTimes() {
  using perfbench::Span;
  // root [0,100]; a [10,40] and b [30,60] overlap (children of root);
  // a1 [15,25] nested in a; a2 [20,35] overlaps a1 inside a.
  std::vector<Span> spans = {
      {1, 0, 0, 0, 100},  {2, 1, 1, 10, 40}, {3, 1, 1, 30, 60},
      {4, 2, 2, 15, 25},  {5, 2, 2, 20, 35},
  };
  std::vector<long long> self = perfbench::SelfTimes(spans);
  Expect(self[0] == 100 - 50, "root self = 100 - union([10,40],[30,60])");
  Expect(self[1] == 30 - 20, "a self = 30 - union([15,25],[20,35])");
  Expect(self[2] == 30, "b has no children");
  Expect(self[3] == 10 && self[4] == 15, "leaves keep their duration");

  // A child whose parent was dropped is a root; one reaching outside its
  // parent only counts where it overlaps.
  std::vector<Span> orphans = {{1, 0, 0, 0, 10}, {2, 99, 1, 2, 4},
                               {3, 1, 1, 8, 20}};
  self = perfbench::SelfTimes(orphans);
  Expect(self[0] == 8, "child clipped to its parent");
  Expect(self[1] == 2, "orphan keeps its duration");

  std::vector<perfbench::LayerTotals> layers =
      perfbench::SummarizeLayers(spans, 3);
  Expect(layers[1].count == 2 && Near(layers[1].total_s, 60e-9) &&
             Near(layers[1].self_s, 40e-9),
         "layer sums over its spans");
}

void TestRecorderParents() {
  perfbench::SpanRecorder& recorder = perfbench::SpanRecorder::Get();
  int outer_layer = recorder.Layer("test.outer");
  int inner_layer = recorder.Layer("test.inner");
  int worker_layer = recorder.Layer("test.worker");
  {
    perfbench::ScopedSpan off(outer_layer);  // Recorder off: not recorded.
  }
  recorder.Start();
  {
    perfbench::ScopedSpan outer(outer_layer);
    { perfbench::ScopedSpan inner(inner_layer); }
    std::thread worker([&] {
      perfbench::ScopedSpan span(worker_layer);
      perfbench::ScopedSpan nested(inner_layer);
    });
    worker.join();
  }
  recorder.Stop();
  std::vector<perfbench::Span> spans = recorder.Drain();
  Expect(spans.size() == 4, "four spans recorded while on");
  std::uint64_t outer_id = 0;
  std::uint64_t worker_id = 0;
  for (const auto& span : spans) {
    if (span.layer == outer_layer) outer_id = span.id;
    if (span.layer == worker_layer) worker_id = span.id;
  }
  int inner_under_outer = 0;
  int inner_under_worker = 0;
  for (const auto& span : spans) {
    if (span.layer == outer_layer) Expect(span.parent == 0, "outer is a root");
    if (span.layer == worker_layer) {
      Expect(span.parent == 0, "a worker thread starts its own stack");
    }
    if (span.layer == inner_layer && span.parent == outer_id) {
      ++inner_under_outer;
    }
    if (span.layer == inner_layer && span.parent == worker_id) {
      ++inner_under_worker;
    }
  }
  Expect(inner_under_outer == 1, "inner span nests under outer");
  Expect(inner_under_worker == 1, "worker's nested span keeps its parent");
  Expect(recorder.Drain().empty(), "drain empties the buffers");
}

}  // namespace

int main() {
  TestMedian();
  TestTail();
  TestCoveredLength();
  TestSelfTimes();
  TestRecorderParents();
  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
