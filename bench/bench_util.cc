#include "bench_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "tmerge/core/thread_pool.h"
#include "tmerge/fault/registry.h"
#include "tmerge/obs/export.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/trace.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/track/appearance_tracker.h"
#include "tmerge/track/regression_tracker.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::bench {

std::int64_t BenchEnv::TotalFrames() const {
  std::int64_t total = 0;
  for (const auto& video : dataset->videos) total += video.num_frames;
  return total;
}

std::int64_t BenchEnv::TotalPairs() const {
  std::int64_t total = 0;
  for (const auto& video : prepared) total += video.TotalPairs();
  return total;
}

std::int64_t BenchEnv::TotalTruth() const {
  std::int64_t total = 0;
  for (const auto& video : prepared) {
    total += static_cast<std::int64_t>(video.truth.size());
  }
  return total;
}

const char* TrackerKindName(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kSort:
      return "SORT";
    case TrackerKind::kAppearance:
      return "DeepSORT";
    case TrackerKind::kRegression:
      return "Tracktor";
  }
  return "unknown";
}

int BenchNumThreads() {
  const char* env = std::getenv("TMERGE_NUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  // std::atoi would map garbage ("abc") silently to 0 = all cores; parse
  // strictly instead and refuse anything but a full non-negative number.
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value < 0 ||
      value > 4096) {
    std::fprintf(stderr,
                 "bench: ignoring invalid TMERGE_NUM_THREADS=\"%s\" "
                 "(want an integer in [0, 4096]); using 0 = all cores\n",
                 env);
    return 0;
  }
  return static_cast<int>(value);
}

void InitObsFromEnv() {
  const char* env = std::getenv("TMERGE_OBS");
  if (env == nullptr || std::strcmp(env, "1") == 0) {
    obs::SetEnabled(true);
    return;
  }
  if (std::strcmp(env, "0") == 0) {
    obs::SetEnabled(false);
    return;
  }
  // Strict on purpose (same policy as TMERGE_NUM_THREADS): accepting
  // "yes"/"true"/"00" loosely would let a typo silently change which code
  // path a bench measures.
  std::fprintf(stderr,
               "bench: ignoring invalid TMERGE_OBS=\"%s\" (want 0 or 1); "
               "instrumentation stays enabled (the default)\n",
               env);
  obs::SetEnabled(true);
}

void InitFaultFromEnv() {
  const char* seed_env = std::getenv("TMERGE_FAULT_SEED");
  if (seed_env != nullptr && *seed_env != '\0') {
    errno = 0;
    char* end = nullptr;
    unsigned long long seed = std::strtoull(seed_env, &end, 10);
    if (errno != 0 || end == seed_env || *end != '\0') {
      std::fprintf(stderr,
                   "bench: ignoring invalid TMERGE_FAULT_SEED=\"%s\" "
                   "(want a non-negative integer); seed unchanged\n",
                   seed_env);
    } else {
      fault::GlobalRegistry().SetSeed(static_cast<std::uint64_t>(seed));
    }
  }
  const char* spec = std::getenv("TMERGE_FAULT");
  if (spec == nullptr || *spec == '\0') return;
  // Strict like TMERGE_NUM_THREADS / TMERGE_OBS: a malformed spec arms
  // nothing (ApplySpec validates every entry before arming any).
  core::Status applied = fault::GlobalRegistry().ApplySpec(spec);
  if (!applied.ok()) {
    std::fprintf(stderr,
                 "bench: ignoring invalid TMERGE_FAULT=\"%s\": %s\n", spec,
                 applied.ToString().c_str());
  }
}

bool InitTraceFromEnv() {
  const char* env = std::getenv("TMERGE_TRACE");
  if (env == nullptr || std::strcmp(env, "0") == 0) return false;
  if (std::strcmp(env, "1") == 0) {
    obs::TraceRecorder::Default().Start();
    return true;
  }
  // Strict on purpose (TMERGE_OBS policy): a typo must never silently
  // decide whether a bench runs with the flight recorder armed.
  std::fprintf(stderr,
               "bench: ignoring invalid TMERGE_TRACE=\"%s\" (want 0 or 1); "
               "tracing stays off (the default)\n",
               env);
  return false;
}

std::string TraceOutputPath(const std::string& fallback) {
  const char* env = std::getenv("TMERGE_TRACE_OUT");
  if (env == nullptr || *env == '\0') return fallback;
  return env;
}

bool DumpTrace(const std::string& path, const char* why) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (!recorder.recording()) return false;
  obs::TraceSnapshot snapshot = recorder.Snapshot();
  if (!obs::WriteChromeTraceFile(path, snapshot)) {
    std::fprintf(stderr, "bench: failed to write %s trace to %s\n", why,
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: %s trace written (%zu events, %lld recorded)\n",
               why, snapshot.events.size(),
               static_cast<long long>(snapshot.total_recorded));
  // Flushed immediately: the watchdog dump is followed by _Exit, which
  // skips stdio teardown.
  std::cout << "TRACE_JSON " << path << "\n" << std::flush;
  return true;
}

void EmitObsSnapshot(const std::string& bench_name) {
  if (!obs::Enabled()) {
    std::cout << "(obs disabled: no instrumentation snapshot for "
              << bench_name << ")\n";
    return;
  }
  obs::RegistrySnapshot snapshot = obs::DefaultRegistry().Snapshot();
  std::cout << "OBS_JSON {\"bench\":\"" << bench_name << "\",\"metrics\":"
            << obs::SnapshotToJson(snapshot) << "}\n";
}

void EmitBenchJson(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::ostringstream out;
  out << "BENCH_JSON {\"bench\":\"" << bench_name << "\"";
  out << std::setprecision(10);
  for (const auto& [key, value] : fields) {
    out << ",\"" << key << "\":" << value;
  }
  out << "}";
  std::cout << out.str() << "\n";
}

BenchEnv PrepareEnvWithWindow(sim::DatasetProfile profile,
                              std::int32_t num_videos, TrackerKind tracker,
                              const merge::WindowConfig& window,
                              std::uint64_t seed, int num_threads) {
  InitObsFromEnv();
  InitFaultFromEnv();
  InitTraceFromEnv();
  BenchEnv env;
  env.name = sim::DatasetProfileName(profile);
  env.dataset = std::make_unique<sim::Dataset>(
      sim::MakeDataset(profile, num_videos, seed));

  merge::PipelineConfig config;
  config.window = window;
  config.seed = seed ^ 0xBEEFULL;

  // Per-video work (seeds derived by index, tracker objects per video), so
  // iterations are independent and results match the serial loop exactly.
  auto prepare_one = [&](std::size_t v) {
    merge::PipelineConfig per_video = config;
    per_video.seed = config.seed + 31 * (v + 1);
    const sim::SyntheticVideo& video = env.dataset->videos[v];
    // The appearance tracker needs a ReID model for this video. Build a
    // throwaway one with the same seeding PrepareVideo will use.
    if (tracker == TrackerKind::kAppearance) {
      reid::SyntheticReidModel model(video, reid::ReidModelConfig{},
                                     per_video.seed);
      track::AppearanceTracker appearance(&model);
      return merge::PrepareVideo(video, appearance, per_video);
    } else if (tracker == TrackerKind::kRegression) {
      track::RegressionTracker regression;
      return merge::PrepareVideo(video, regression, per_video);
    }
    track::SortTracker sort_tracker;
    return merge::PrepareVideo(video, sort_tracker, per_video);
  };

  std::size_t count = env.dataset->videos.size();
  env.prepared.resize(count);
  int workers = core::ResolveNumThreads(num_threads);
  if (workers == 1 || count <= 1) {
    for (std::size_t v = 0; v < count; ++v) env.prepared[v] = prepare_one(v);
  } else {
    core::ThreadPool pool(workers);
    pool.ParallelFor(0, static_cast<std::int64_t>(count), [&](std::int64_t v) {
      env.prepared[v] = prepare_one(static_cast<std::size_t>(v));
    });
  }
  return env;
}

BenchEnv PrepareEnv(sim::DatasetProfile profile, std::int32_t num_videos,
                    TrackerKind tracker, std::int32_t window_length,
                    std::uint64_t seed, int num_threads) {
  merge::WindowConfig window;
  window.single_window = profile != sim::DatasetProfile::kPathTrackLike;
  window.length = window_length;
  return PrepareEnvWithWindow(profile, num_videos, tracker, window, seed,
                              num_threads);
}

std::vector<CurvePoint> SweepMethods(const BenchEnv& env,
                                     const MethodSweepConfig& config) {
  std::vector<CurvePoint> points;
  merge::SelectorOptions options;
  options.k_fraction = config.k_fraction;
  options.batch_size = config.batch_size;
  options.seed = config.seed;
  const char* suffix = config.batch_size > 1 ? "-B" : "";
  const int num_threads = BenchNumThreads();

  auto record = [&](const std::string& method, double parameter,
                    merge::CandidateSelector& selector) {
    merge::EvalResult eval = merge::EvaluateSelectorAveraged(
        env.prepared, selector, options, config.trials, num_threads);
    CurvePoint point;
    point.method = method;
    point.parameter = parameter;
    point.rec = eval.rec;
    point.fps = eval.fps;
    point.simulated_seconds = eval.simulated_seconds;
    point.inferences = eval.usage.TotalInferences();
    point.distances = eval.usage.distance_evals;
    points.push_back(point);
  };

  if (config.include_bl) {
    merge::BaselineSelector baseline;
    record(std::string("BL") + suffix, 0.0, baseline);
  }
  if (config.include_ps) {
    for (double eta : config.ps_etas) {
      merge::ProportionalSelector ps(eta);
      record(std::string("PS") + suffix, eta, ps);
    }
  }
  if (config.include_lcb) {
    for (std::int64_t tau : config.bandit_taus) {
      merge::LcbSelector lcb(tau);
      record(std::string("LCB") + suffix, static_cast<double>(tau), lcb);
    }
  }
  if (config.include_tmerge) {
    for (std::int64_t tau : config.bandit_taus) {
      merge::TMergeOptions tmerge_options;
      tmerge_options.tau_max = tau;
      merge::TMergeSelector tmerge(tmerge_options);
      record(std::string("TMerge") + suffix, static_cast<double>(tau), tmerge);
    }
  }
  return points;
}

std::vector<metrics::RecFpsPoint> CurveOf(const std::vector<CurvePoint>& points,
                                          const std::string& method) {
  std::vector<metrics::RecFpsPoint> curve;
  for (const auto& point : points) {
    if (point.method == method) curve.push_back({point.rec, point.fps});
  }
  return curve;
}

}  // namespace tmerge::bench
