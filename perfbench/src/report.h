#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// One named measurement with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
  std::string note;
};

/// Collects a run's metrics and correctness tally, prints them as a table
/// for people and as one machine-readable line for perfbench/run.py.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           long long samples, const std::string& note = "");

  /// Adds `<prefix>_p50` and `<prefix>_tail` (the highest percentile with
  /// at least ten samples beyond it; the percentile goes into the note).
  void AddLatency(const std::string& prefix, const std::vector<double>& values,
                  const std::string& unit);

  /// Counts `n` checked operations.
  void Attempt(long long n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and says why on stderr.
  void Fail(long long n, const std::string& why);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

  void PrintTable(std::ostream& out, const std::string& title) const;
  /// "PERFBENCH_RESULT {...}": correct, attempted, failed and every metric.
  void PrintResult(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
