#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  std::size_t rank = n - 10;  // 1-based; exactly ten samples rank above it.
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.valid = true;
  return tail;
}

long long CoveredLength(std::vector<Interval> intervals, Interval bounds) {
  for (Interval& interval : intervals) {
    interval.start = std::max(interval.start, bounds.start);
    interval.end = std::min(interval.end, bounds.end);
  }
  std::erase_if(intervals,
                [](const Interval& i) { return i.end <= i.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  long long covered = 0;
  long long run_start = 0;
  long long run_end = 0;
  bool open = false;
  for (const Interval& interval : intervals) {
    if (open && interval.start <= run_end) {
      run_end = std::max(run_end, interval.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = interval.start;
    run_end = interval.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace perfbench
