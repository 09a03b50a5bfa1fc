// Observability smoke: a deliberately small end-to-end run (MOT-17-like,
// 2 videos, TMerge only) whose point is the instrumentation, not the
// numbers. CI runs this binary, pipes the OBS_JSON line through a JSON
// validator, and asserts the expected metric names are present; it also
// cross-checks the exported ReID counters against the pipeline's own
// UsageStats so the two accounting systems can never drift apart.

#include <iostream>

#include "bench_util.h"
#include "tmerge/core/status.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/obs/metrics.h"

namespace tmerge::bench {
namespace {

void Run() {
  // Force >= 2 workers so the ThreadPool instrumentation (queue wait, busy
  // time) shows up in the snapshot even on single-core hosts.
  int threads = BenchNumThreads();
  if (threads >= 0 && threads < 2) threads = 2;
  BenchEnv env =
      PrepareEnv(sim::DatasetProfile::kMot17Like, /*num_videos=*/2,
                 TrackerKind::kSort, /*window_length=*/2000,
                 /*seed=*/424242, threads);

  merge::TMergeSelector selector;
  merge::SelectorOptions options;
  options.k_fraction = 0.05;
  merge::EvalResult eval =
      merge::EvaluateDataset(env.prepared, selector, options, threads);

  std::cout << "=== Observability smoke (" << env.name << "-like, "
            << env.prepared.size() << " videos) ===\n";
  core::TablePrinter table({"REC", "FPS", "inferences", "cache-hits",
                            "summed-wall-s", "elapsed-s"});
  table.AddRow()
      .AddNumber(eval.rec, 3)
      .AddNumber(eval.fps, 2)
      .AddInt(eval.usage.TotalInferences())
      .AddInt(eval.usage.cache_hits)
      .AddNumber(eval.summed_wall_seconds, 3)
      .AddNumber(eval.elapsed_seconds, 3);
  table.Print(std::cout);

  std::cout << "BENCH_JSON {\"bench\":\"obs_smoke\",\"rec\":" << eval.rec
            << ",\"inferences\":" << eval.usage.TotalInferences()
            << ",\"summed_wall_seconds\":" << eval.summed_wall_seconds
            << ",\"elapsed_seconds\":" << eval.elapsed_seconds << "}\n";

  if (obs::Enabled()) {
    // The registry was touched only by this run, so the exported counters
    // must agree exactly with the EvalResult's UsageStats aggregation.
    obs::MetricsRegistry& registry = obs::DefaultRegistry();
    TMERGE_CHECK(registry.GetCounter("reid.inferences.single").Value() ==
                 eval.usage.single_inferences);
    TMERGE_CHECK(registry.GetCounter("reid.distance_evals").Value() ==
                 eval.usage.distance_evals);
    TMERGE_CHECK(registry.GetCounter("reid.cache.hits").Value() ==
                 eval.usage.cache_hits);
    TMERGE_CHECK(registry.GetCounter("evaluate.windows").Value() ==
                 eval.windows);
    std::cout << "obs counters consistent with UsageStats\n";
  }

  EmitObsSnapshot("obs_smoke");
}

}  // namespace
}  // namespace tmerge::bench

int main() {
  tmerge::bench::Run();
  return 0;
}
