// Figure 7: runtime and REC of TMerge-B (B = 10) as tau_max grows, on the
// MOT-17-like dataset. REC climbs quickly then saturates near the BL level
// (the easy polyonymous pairs are found early; hard pairs need more
// iterations); runtime grows sub-linearly late because feature reuse makes
// later iterations cheap.

#include <iostream>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/tmerge.h"

namespace tmerge::bench {
namespace {

void Run() {
  const int threads = BenchNumThreads();
  BenchEnv env = PrepareEnv(sim::DatasetProfile::kMot17Like, 5);
  merge::SelectorOptions options;
  options.k_fraction = 0.05;
  options.batch_size = 10;

  core::TablePrinter table({"tau_max", "REC", "sim-seconds", "inferences",
                            "cache hits", "wall-seconds"});
  for (std::int64_t tau :
       {250, 500, 1000, 2000, 4000, 8000, 16000, 32000}) {
    merge::TMergeOptions tmerge_options;
    tmerge_options.tau_max = tau;
    merge::TMergeSelector selector(tmerge_options);
    merge::EvalResult eval =
        merge::EvaluateSelectorAveraged(env.prepared, selector, options, 3,
                                        threads);
    table.AddRow()
        .AddInt(tau)
        .AddNumber(eval.rec, 3)
        .AddNumber(eval.simulated_seconds, 2)
        .AddInt(eval.usage.TotalInferences())
        .AddInt(eval.usage.cache_hits)
        .AddNumber(eval.summed_wall_seconds, 3);
  }

  merge::BaselineSelector baseline;
  merge::SelectorOptions bl_options = options;
  merge::EvalResult bl = merge::EvaluateSelectorAveraged(
      env.prepared, baseline, bl_options, 1, threads);

  std::cout << "=== Figure 7: TMerge-B (B=10) REC & runtime vs tau_max "
               "(MOT-17-like) ===\n";
  table.Print(std::cout);
  std::cout << "\nBL-B reference: REC=" << core::FormatFixed(bl.rec, 3)
            << " sim-seconds=" << core::FormatFixed(bl.simulated_seconds, 2)
            << " (the level TMerge-B approaches at a fraction of the cost)\n";
  std::cout << "Expected shape: REC rises fast then flattens near the BL "
               "level; runtime growth slows as cache hits dominate.\n";
}

}  // namespace
}  // namespace tmerge::bench

int main() {
  tmerge::bench::Run();
  return 0;
}
