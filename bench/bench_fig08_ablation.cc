// Figure 8: ablation study — REC-FPS curves of full TMerge vs TMerge
// without BetaInit vs TMerge without ULB, on the MOT-17-like dataset.
// The paper finds BetaInit contributes more than ULB.

#include <iostream>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/merge/tmerge.h"

namespace tmerge::bench {
namespace {

void Run() {
  const int threads = BenchNumThreads();
  BenchEnv env = PrepareEnv(sim::DatasetProfile::kMot17Like, 5);
  merge::SelectorOptions options;
  options.k_fraction = 0.05;

  struct Variant {
    const char* name;
    bool beta_init;
    bool ulb;
  };
  const Variant variants[] = {
      {"TMerge", true, true},
      {"TMerge w/o BetaInit", false, true},
      {"TMerge w/o ULB", true, false},
      {"TMerge w/o both", false, false},
  };

  std::cout << "=== Figure 8: ablation of BetaInit and ULB (MOT-17-like) "
               "===\n";
  core::TablePrinter table({"variant", "tau_max", "REC", "FPS", "inferences"});
  for (const auto& variant : variants) {
    for (std::int64_t tau : {500, 1500, 5000, 15000}) {
      merge::TMergeOptions tmerge_options;
      tmerge_options.tau_max = tau;
      tmerge_options.use_beta_init = variant.beta_init;
      tmerge_options.use_ulb = variant.ulb;
      merge::TMergeSelector selector(tmerge_options);
      merge::EvalResult eval = merge::EvaluateSelectorAveraged(
          env.prepared, selector, options, 3, threads);
      table.AddRow()
          .AddCell(variant.name)
          .AddInt(tau)
          .AddNumber(eval.rec, 3)
          .AddNumber(eval.fps, 2)
          .AddInt(eval.usage.TotalInferences());
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: the full-TMerge curve dominates; removing "
               "BetaInit costs more than removing ULB.\n";
}

}  // namespace
}  // namespace tmerge::bench

int main() {
  tmerge::bench::Run();
  return 0;
}
