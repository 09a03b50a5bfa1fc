// Regret analysis (paper §IV-E, Eq. 11): the average regret
//   R(tau_max) = (1/tau_max) * sum_tau (d~_tau - s~_min)
// of TMerge's sampling sequence must decrease as tau_max grows — evidence
// that Thompson sampling progressively biases evaluation toward the
// lowest-score track pairs (the O(sqrt(|P| log(tau)/tau)) bound). LCB is
// shown alongside; uniform PS would stay flat at the mean pair score.
//
// Single-window workload so s~_min is unambiguous.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::bench {
namespace {

void Run() {
  sim::SyntheticVideo video = sim::GenerateVideo(
      sim::ProfileConfig(sim::DatasetProfile::kMot17Like), /*seed=*/7);
  track::SortTracker tracker;
  merge::PipelineConfig config;
  config.window.single_window = true;
  merge::PreparedVideo prepared = merge::PrepareVideo(video, tracker, config);
  merge::PairContext context(prepared.tracking, prepared.windows[0].pairs);

  // Exact minimum score via the baseline.
  merge::BaselineSelector baseline;
  merge::SelectorOptions options;
  options.k_fraction = 1.0;
  reid::FeatureCache bl_cache;
  baseline.Select(context, *prepared.model, bl_cache, options);
  // last_scores() returns a copy; take one, so both iterators below point
  // into the same vector.
  const std::vector<double> scores = baseline.last_scores();
  double s_min = *std::min_element(scores.begin(), scores.end());
  double s_mean = 0.0;
  for (double s : scores) s_mean += s;
  s_mean /= static_cast<double>(scores.size());

  std::cout << "=== Regret of the sampling sequence (paper SIV-E, Eq. 11) "
               "===\n";
  std::cout << "window: " << context.num_pairs()
            << " pairs; exact s~_min = " << core::FormatFixed(s_min, 3)
            << ", mean pair score = " << core::FormatFixed(s_mean, 3)
            << " (uniform sampling's regret level)\n\n";

  core::TablePrinter table({"tau_max", "TMerge R(tau)", "LCB R(tau)"});
  options.k_fraction = 0.05;
  for (std::int64_t tau : {250, 500, 1000, 2000, 4000, 8000, 16000}) {
    merge::TMergeOptions tmerge_options;
    tmerge_options.tau_max = tau;
    merge::TMergeSelector tmerge(tmerge_options);
    reid::FeatureCache cache1;
    merge::SelectionResult tm =
        tmerge.Select(context, *prepared.model, cache1, options);
    merge::LcbSelector lcb(tau);
    reid::FeatureCache cache2;
    merge::SelectionResult lc =
        lcb.Select(context, *prepared.model, cache2, options);
    auto regret = [&](const merge::SelectionResult& r) {
      return r.box_pairs_evaluated > 0
                 ? r.sum_sampled_distance / r.box_pairs_evaluated - s_min
                 : 0.0;
    };
    table.AddRow()
        .AddInt(tau)
        .AddNumber(regret(tm), 3)
        .AddNumber(regret(lc), 3);
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: TMerge's average regret falls steadily "
               "with tau (Eq. 11's O(sqrt(|P| log tau / tau)) bound) while "
               "LCB's stays near-flat — its confidence bonus keeps pulling "
               "cold arms, which is why TMerge ends up touching far fewer "
               "distinct crops at matched budgets.\n";
}

}  // namespace
}  // namespace tmerge::bench

int main() {
  tmerge::bench::Run();
  return 0;
}
