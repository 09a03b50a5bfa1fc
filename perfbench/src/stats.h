#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile that has at least
/// ten samples beyond it. With n sorted samples that is rank n - 10
/// (1-based), i.e. percentile 100 * (n - 10) / n. Fewer than 11 samples
/// have no such percentile: `valid` is false and `value` is the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  bool valid = false;
};

Tail TailOf(std::vector<double> values);

/// A closed interval [start, end] in nanoseconds.
struct Interval {
  long long start = 0;
  long long end = 0;
};

/// Length of the union of `intervals` clipped to `bounds`. Overlapping and
/// nested intervals are counted once.
long long CoveredLength(std::vector<Interval> intervals, Interval bounds);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
