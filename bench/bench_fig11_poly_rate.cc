// Figure 11: polyonymous rates of the three trackers on the MOT-17-like
// dataset, with and without TMerge. Rate = |P*| / |P| before merging, and
// |P* \ P-hat*| / |P| after TMerge removes the identified pairs. The paper
// reports a >10x reduction for every tracker.

#include <iostream>
#include <set>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/merge/tmerge.h"

namespace tmerge::bench {
namespace {

void Run() {
  std::cout << "=== Figure 11: polyonymous rate with/without TMerge "
               "(MOT-17-like) ===\n";
  core::TablePrinter table({"tracker", "pairs", "poly", "rate %",
                            "rate % | TMerge", "reduction"});

  for (TrackerKind kind : {TrackerKind::kSort, TrackerKind::kAppearance,
                           TrackerKind::kRegression}) {
    BenchEnv env = PrepareEnv(sim::DatasetProfile::kMot17Like, 5, kind);

    // Deployment setting: the paper calibrates K on representative videos
    // so that REC clears ~0.95 (SIII); with this simulator's higher
    // polyonymous rate (~3-4%) that calibration lands at K = 0.10, and the
    // correction pass runs with a generous budget.
    merge::TMergeOptions tmerge_options;
    tmerge_options.tau_max = 30000;
    merge::TMergeSelector selector(tmerge_options);
    merge::SelectorOptions options;
    options.k_fraction = 0.10;
    merge::EvalResult eval =
        merge::EvaluateDataset(env.prepared, selector, options);

    std::int64_t pairs = env.TotalPairs();
    std::int64_t poly = env.TotalTruth();
    std::int64_t remaining = poly - eval.hits;  // P* \ P-hat*.
    double rate = pairs > 0 ? 100.0 * poly / pairs : 0.0;
    double rate_after = pairs > 0 ? 100.0 * remaining / pairs : 0.0;
    table.AddRow()
        .AddCell(TrackerKindName(kind))
        .AddInt(pairs)
        .AddInt(poly)
        .AddNumber(rate, 3)
        .AddNumber(rate_after, 3)
        .AddCell(rate_after > 0.0
                     ? core::FormatFixed(rate / rate_after, 1) + "x"
                     : "inf");
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: every tracker leaves a nonzero polyonymous "
               "rate; TMerge reduces it by an order of magnitude or more.\n";
}

}  // namespace
}  // namespace tmerge::bench

int main() {
  tmerge::bench::Run();
  return 0;
}
