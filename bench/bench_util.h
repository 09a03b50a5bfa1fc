#ifndef TMERGE_BENCH_BENCH_UTIL_H_
#define TMERGE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tmerge/merge/pipeline.h"
#include "tmerge/metrics/recall.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/track.h"

namespace tmerge::bench {

/// A dataset plus its prepared per-video state (tracking, windows, truth),
/// computed once per bench binary and reused across sweeps. Owns the videos
/// that PreparedVideo points into.
struct BenchEnv {
  std::string name;
  std::unique_ptr<sim::Dataset> dataset;
  std::vector<merge::PreparedVideo> prepared;

  std::int64_t TotalFrames() const;
  std::int64_t TotalPairs() const;
  std::int64_t TotalTruth() const;
};

/// Which tracker feeds the pipeline.
enum class TrackerKind { kSort, kAppearance, kRegression };

const char* TrackerKindName(TrackerKind kind);

/// Worker threads benches use for dataset preparation and evaluation:
/// the TMERGE_NUM_THREADS environment variable when set, otherwise 0
/// (= hardware_concurrency). Results are identical for any value; only
/// wall-clock changes. Invalid values (non-numeric, trailing junk,
/// negative) are rejected with a warning on stderr and fall back to 0.
int BenchNumThreads();

/// Applies the TMERGE_OBS environment variable to the runtime
/// instrumentation switch: unset or "1" enables it (benches default to
/// instrumented runs so they can emit snapshots), "0" disables. Anything
/// else — "true", "yes", stray whitespace — is rejected with a warning on
/// stderr and falls back to the enabled default, mirroring
/// BenchNumThreads' strict parsing: a typo must never silently flip what a
/// bench measures. Called by PrepareEnv* so most benches need nothing
/// explicit.
void InitObsFromEnv();

/// Applies the TMERGE_FAULT / TMERGE_FAULT_SEED environment variables to
/// the global failpoint registry (fault/registry.h). TMERGE_FAULT is a
/// spec string "point=probability[@latency];..." (e.g.
/// "reid.embed=0.1;io.mot.corrupt_row=0.01@0.002") applied via ApplySpec;
/// TMERGE_FAULT_SEED is the injection seed (default 0). Parsing is strict
/// like the other TMERGE_* knobs: a malformed spec or seed is rejected
/// with a warning on stderr and arms nothing — a typo must never silently
/// run a bench with the wrong fault schedule. Called by PrepareEnv*.
void InitFaultFromEnv();

/// Applies the TMERGE_TRACE environment variable to the default flight
/// recorder (obs/trace.h): "1" starts it (clears the rings and enables
/// recording), unset or "0" leaves it stopped. Tracing is opt-in, unlike
/// TMERGE_OBS metrics — the recorder buffers every instrumented event and
/// benches should only pay for that when someone wants the trace. Strict
/// parsing like the other knobs; an invalid value warns and stays off.
/// Returns whether recording ended up on. Called by PrepareEnv*.
bool InitTraceFromEnv();

/// The path benches write Chrome-trace JSON to: TMERGE_TRACE_OUT when set
/// and non-empty, otherwise `fallback`.
std::string TraceOutputPath(const std::string& fallback);

/// Snapshots the default flight recorder and writes Chrome trace-event
/// JSON to `path`, then prints one machine-readable "TRACE_JSON <path>"
/// line so CI jobs and humans reading a failed log can find the artifact.
/// `why` labels the dump on stderr ("stream soak", "watchdog
/// post-mortem", ...). Returns false — without printing TRACE_JSON — when
/// the recorder is not recording or the file cannot be written.
bool DumpTrace(const std::string& path, const char* why);

/// Prints one machine-readable "OBS_JSON {...}" line: the default
/// registry's snapshot wrapped with the bench name, next to the bench's
/// BENCH_JSON numbers. No-op (with a notice) when instrumentation is
/// runtime-disabled.
void EmitObsSnapshot(const std::string& bench_name);

/// Prints one machine-readable "BENCH_JSON {...}" line: the bench name
/// followed by numeric fields, in the given order. Integral values print
/// without a decimal point. The CI perf-smoke job parses these lines and
/// compares them against the committed bench/BENCH_tier1.json baseline
/// (tools/bench_regress.py).
void EmitBenchJson(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& fields);

/// Prepares a profile's benchmark environment: generates `num_videos`
/// videos, runs detection + tracking, builds windows and ground truth
/// (videos prepared concurrently with `num_threads` workers; 0 =
/// hardware_concurrency). MOT-17/KITTI profiles use whole-video windows;
/// PathTrack uses half-overlapping windows of `window_length` (paper §V-A).
BenchEnv PrepareEnv(sim::DatasetProfile profile, std::int32_t num_videos,
                    TrackerKind tracker = TrackerKind::kSort,
                    std::int32_t window_length = 2000,
                    std::uint64_t seed = 424242, int num_threads = 0);

/// Variant that forces the windowing mode regardless of profile.
BenchEnv PrepareEnvWithWindow(sim::DatasetProfile profile,
                              std::int32_t num_videos, TrackerKind tracker,
                              const merge::WindowConfig& window,
                              std::uint64_t seed = 424242,
                              int num_threads = 0);

/// One point of a method's trade-off curve, with bookkeeping.
struct CurvePoint {
  std::string method;
  double parameter = 0.0;  ///< eta for PS, tau_max for LCB/TMerge, 0 for BL.
  double rec = 0.0;
  double fps = 0.0;
  double simulated_seconds = 0.0;
  std::int64_t inferences = 0;
  std::int64_t distances = 0;
};

/// The methods of §V-B. `batch_size` 1 = plain; >1 = the "-B" variant.
struct MethodSweepConfig {
  double k_fraction = 0.05;
  std::int32_t batch_size = 1;
  std::vector<double> ps_etas = {0.003, 0.01, 0.03, 0.1, 0.3};
  std::vector<std::int64_t> bandit_taus = {500, 1500, 5000, 15000};
  bool include_bl = true;
  bool include_ps = true;
  bool include_lcb = true;
  bool include_tmerge = true;
  std::uint64_t seed = 11;
  /// Independent trials averaged per point (the paper averages 10).
  int trials = 3;
  /// Worker threads per EvaluateDataset call (0 = hardware_concurrency,
  /// 1 = serial). Does not change results, only wall-clock.
  int num_threads = 1;
};

/// Sweeps every requested method over the environment, producing REC-FPS
/// curve points (Figs. 5-6 and Table II's raw material).
std::vector<CurvePoint> SweepMethods(const BenchEnv& env,
                                     const MethodSweepConfig& config);

/// Extracts one method's (REC, FPS) curve from sweep output.
std::vector<metrics::RecFpsPoint> CurveOf(const std::vector<CurvePoint>& points,
                                          const std::string& method);

}  // namespace tmerge::bench

#endif  // TMERGE_BENCH_BENCH_UTIL_H_
