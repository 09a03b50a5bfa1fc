// tmerge_perfbench: one workload of the end-to-end benchmark.
//
//   tmerge_perfbench --workload sampling|exhaustive|stream --seed N
//                    --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with all instrumentation off.
// --trace 1 runs the same inputs with timing decorators at the layer
// boundaries and reports the per-layer breakdown instead. Both print a
// table for people and end with one "PERFBENCH_RESULT {...}" line that
// perfbench/run.py turns into the benchmark's result.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/trace.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "tmerge_perfbench: " << why
            << "\nusage: tmerge_perfbench --workload sampling|exhaustive|stream"
               " --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    Usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return value;
}

perfbench::RunOptions ParseArgs(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUnsigned(flag, value));
      if (options.seconds < 1) Usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace wants 0 or 1");
      options.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.workload != "sampling" && options.workload != "exhaustive" &&
      options.workload != "stream") {
    Usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options = ParseArgs(argc, argv);
  // Timed and traced runs alike measure with the library's own
  // instrumentation off; the traced run's spans come from the decorators.
  tmerge::obs::SetEnabled(false);
  tmerge::obs::TraceRecorder::Default().Stop();

  std::cout << "tmerge_perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  perfbench::Report report;
  if (options.workload == "stream") {
    perfbench::RunStreamWorkload(options, report, std::cout);
  } else {
    perfbench::RunBatchWorkload(options, report, std::cout);
  }
  report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MiB", 1);
  report.Add("fail_ratio",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted())
                 : 0.0,
             "ratio", report.attempted(), "failed / attempted");
  report.PrintTable(std::cout, options.workload + (options.trace
                                                       ? " (traced run)"
                                                       : " (timed run)"));
  report.PrintResult(std::cout);
  return 0;
}
