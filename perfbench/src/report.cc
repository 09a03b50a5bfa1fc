#include "report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "stats.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, long long samples,
                 const std::string& note) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples,
                      note});
}

void Report::AddLatency(const std::string& prefix,
                        const std::vector<double>& values,
                        const std::string& unit) {
  long long n = static_cast<long long>(values.size());
  Add(prefix + "_p50", Median(values), unit, n);
  Tail tail = TailOf(values);
  std::ostringstream note;
  note << std::fixed << std::setprecision(2) << "p" << tail.percentile;
  if (!tail.valid) note << " (max: fewer than 11 samples)";
  Add(prefix + "_tail", tail.value, unit, n, note.str());
}

void Report::Fail(long long n, const std::string& why) {
  failed_ += n;
  std::cerr << "perfbench: CHECK FAILED (" << n << "): " << why << "\n";
}

void Report::PrintTable(std::ostream& out, const std::string& title) const {
  out << "=== " << title << " ===\n";
  for (const Metric& metric : metrics_) {
    out << "  " << std::left << std::setw(30) << metric.name << std::right
        << std::setw(16) << std::setprecision(6) << metric.value << " "
        << std::left << std::setw(8) << metric.unit << std::right
        << " n=" << metric.samples;
    if (!metric.note.empty()) out << "  " << metric.note;
    out << "\n";
  }
  out << "  correctness: " << failed_ << " failed of " << attempted_
      << " checked\n";
}

void Report::PrintResult(std::ostream& out) const {
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    json << (i == 0 ? "" : ", ") << "\"" << metric.name
         << "\": {\"value\": " << metric.value << ", \"unit\": \""
         << metric.unit << "\", \"samples\": " << metric.samples << "}";
  }
  json << "}}";
  out << "PERFBENCH_RESULT " << json.str() << "\n";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
