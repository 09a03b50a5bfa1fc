#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorators.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// `sampling` and `exhaustive`: batch selection through EvaluateDataset.
void RunBatchWorkload(const RunOptions& options, Report& report,
                      std::ostream& out);
/// `stream`: multi-camera ingest through StreamService.
void RunStreamWorkload(const RunOptions& options, Report& report,
                       std::ostream& out);

/// Per-layer sums over the spans of repeated traced runs.
class LayerBreakdown {
 public:
  /// Folds one traced repetition's spans in.
  void Add(const std::vector<Span>& spans);
  /// Totals of `layer`, averaged per repetition.
  LayerTotals Get(const std::string& layer) const;
  int reps() const { return reps_; }
  /// Self-time table with each layer's share of `wall_s` per repetition.
  void Print(std::ostream& out, const std::string& title, double wall_s) const;

 private:
  std::map<std::string, LayerTotals> sums_;
  int reps_ = 0;
};

/// Stream scheduler counters, summed over traced sessions.
struct StreamCounters {
  double backpressure_events = 0;
  double peak_queued_frames = 0;
  double merge_jobs = 0;
  double merge_jobs_deferred = 0;
  double ingest_jobs_deferred = 0;
  double force_flushes = 0;
  double stall_flushes = 0;
};

/// Everything the traced run measured; AddPerLayerMetrics turns it into the
/// per-layer metrics every workload reports (zero where a workload does not
/// exercise a layer).
struct TracedTotals {
  LayerBreakdown setup;   ///< One traced input build.
  LayerBreakdown layers;  ///< Traced passes (batch) or sessions (stream).
  Fingerprint fingerprint;
  /// Tallies of the TimedSelector decorators by layer ("select.tmerge",
  /// "gate", ...), summed over traced repetitions.
  std::map<std::string, SelectTally> selectors;
  /// Layer whose tally carries the workload's whole selection output (the
  /// outermost decorator).
  std::vector<std::string> outer_layers;
  StreamCounters stream;
  int merge_workers = 0;
  double traced_wall_s = 0.0;    ///< Median traced repetition.
  double untraced_wall_s = 0.0;  ///< Median untraced repetition.
  std::string root_layer;        ///< Span covering one repetition.
};

void AddPerLayerMetrics(const TracedTotals& traced, Report& report,
                        std::ostream& out);

/// Builds the workload's inputs and appends each build's wall time to
/// `setup_s`: five timed builds, or one traced build (into traced.setup)
/// with --trace 1. Checks that repeated builds give the same fingerprint
/// and that the step-by-step preparation matches merge::PrepareVideo.
std::unique_ptr<WorkloadInputs> SetUp(const InputSpec& spec,
                                      const RunOptions& options,
                                      Report& report, TracedTotals& traced,
                                      std::vector<double>& setup_s,
                                      std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
