// Gate frontier: the recall/cost trade-off of selective ReID gating
// (tmerge::gate) on the default MOT-17-like profile. Three gate
// strictness settings are swept against the ungated TMerge reference; the
// default setting is the acceptance gate of ROADMAP item 2 — the bench
// exits nonzero unless it reaches >= 1.3x simulated FPS at <= 1% recall
// loss, and its BENCH_JSON line ("gate_frontier") is additionally pinned
// by bench/BENCH_tier1.json in CI (tools/bench_regress.py).
//
// `--calibrate` prints the gate-evidence distributions split by ground
// truth (same object vs not) — the data the GateConfig defaults were
// chosen from — and skips the sweep.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "tmerge/core/table_printer.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/gate/pair_gate.h"
#include "tmerge/merge/tmerge.h"

namespace tmerge::bench {
namespace {

struct FrontierSetting {
  const char* label;
  gate::GateConfig config;
};

std::vector<FrontierSetting> Settings() {
  gate::GateConfig conservative;
  conservative.enabled = true;
  conservative.accept_min_iou = 0.45;
  conservative.reject_min_gap_frames = 450;
  conservative.max_speed_pixels_per_frame = 24.0;
  conservative.reject_max_iou = 0.02;

  gate::GateConfig fallback;  // The shipped defaults.
  fallback.enabled = true;

  gate::GateConfig aggressive;
  aggressive.enabled = true;
  aggressive.accept_min_iou = 0.20;
  aggressive.accept_max_gap_frames = 90;
  aggressive.reject_min_gap_frames = 90;
  aggressive.max_speed_pixels_per_frame = 10.0;
  aggressive.reject_max_iou = 0.08;

  return {{"conservative", conservative},
          {"default", fallback},
          {"aggressive", aggressive}};
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Evidence distributions over every window pair, split by ground truth —
/// the calibration data behind the GateConfig defaults.
void RunCalibrate(const BenchEnv& env) {
  struct Split {
    std::vector<double> iou, speed, gap;
  } same, diff;
  for (const auto& prepared : env.prepared) {
    std::set<metrics::TrackPairKey> truth(prepared.truth.begin(),
                                          prepared.truth.end());
    for (const auto& window : prepared.windows) {
      merge::PairContext context(prepared.tracking, window.pairs);
      for (std::size_t p = 0; p < context.num_pairs(); ++p) {
        gate::GateEvidence e = gate::ComputeEvidence(context, p);
        Split& split = truth.contains(context.pair(p)) ? same : diff;
        split.iou.push_back(e.extrapolated_iou);
        split.speed.push_back(e.required_speed);
        split.gap.push_back(static_cast<double>(e.gap_frames));
      }
    }
  }
  std::cout << "=== Gate evidence calibration (MOT-17-like) ===\n";
  core::TablePrinter table(
      {"population", "n", "metric", "p10", "p50", "p90", "p99"});
  auto emit = [&table](const char* population, const char* metric,
                       const std::vector<double>& values) {
    table.AddRow()
        .AddCell(population)
        .AddInt(static_cast<std::int64_t>(values.size()))
        .AddCell(metric)
        .AddNumber(Percentile(values, 0.10), 3)
        .AddNumber(Percentile(values, 0.50), 3)
        .AddNumber(Percentile(values, 0.90), 3)
        .AddNumber(Percentile(values, 0.99), 3);
  };
  emit("gt-same", "extrapolated_iou", same.iou);
  emit("gt-same", "required_speed", same.speed);
  emit("gt-same", "gap_frames", same.gap);
  emit("gt-diff", "extrapolated_iou", diff.iou);
  emit("gt-diff", "required_speed", diff.speed);
  emit("gt-diff", "gap_frames", diff.gap);
  table.Print(std::cout);
}

int RunFrontier(const BenchEnv& env, int threads) {
  merge::SelectorOptions options;
  options.k_fraction = 0.05;
  merge::TMergeOptions tmerge_options;
  tmerge_options.tau_max = 4000;
  merge::TMergeSelector tmerge(tmerge_options);

  merge::EvalResult base = merge::EvaluateSelectorAveraged(
      env.prepared, tmerge, options, /*trials=*/3, threads);

  std::cout << "=== Gate frontier: gated vs ungated TMerge (MOT-17-like) "
               "===\n";
  core::TablePrinter table({"gate", "REC", "rec-loss", "FPS", "FPS-ratio",
                            "accepted", "rejected", "ambiguous"});
  table.AddRow()
      .AddCell("off")
      .AddNumber(base.rec, 3)
      .AddNumber(0.0, 4)
      .AddNumber(base.fps, 2)
      .AddNumber(1.0, 2)
      .AddCell("-")
      .AddCell("-")
      .AddCell("-");

  int exit_code = 0;
  for (const FrontierSetting& setting : Settings()) {
    gate::GatedSelector gated(tmerge, setting.config);
    merge::EvalResult eval = merge::EvaluateSelectorAveraged(
        env.prepared, gated, options, /*trials=*/3, threads);
    const double recall_loss = base.rec - eval.rec;
    const double fps_ratio = base.fps > 0.0 ? eval.fps / base.fps : 0.0;
    table.AddRow()
        .AddCell(setting.label)
        .AddNumber(eval.rec, 3)
        .AddNumber(recall_loss, 4)
        .AddNumber(eval.fps, 2)
        .AddNumber(fps_ratio, 2)
        .AddInt(eval.usage.gate_accepted)
        .AddInt(eval.usage.gate_rejected)
        .AddInt(eval.usage.gate_ambiguous);
    if (std::string(setting.label) == "default") {
      EmitBenchJson(
          "gate_frontier",
          {{"rec_base", base.rec},
           {"rec_gated", eval.rec},
           {"recall_loss", recall_loss},
           {"fps_ratio", fps_ratio},
           {"gate_accepted", static_cast<double>(eval.usage.gate_accepted)},
           {"gate_rejected", static_cast<double>(eval.usage.gate_rejected)},
           {"gate_ambiguous",
            static_cast<double>(eval.usage.gate_ambiguous)}});
      // The acceptance gate of ROADMAP item 2, enforced here so a local
      // run fails as loudly as CI's bench_regress comparison.
      if (fps_ratio < 1.3) {
        std::cerr << "FAIL: default gate fps_ratio " << fps_ratio
                  << " < 1.3\n";
        exit_code = 1;
      }
      if (recall_loss > 0.01) {
        std::cerr << "FAIL: default gate recall loss " << recall_loss
                  << " > 0.01\n";
        exit_code = 1;
      }
    }
  }
  table.Print(std::cout);
  std::cout << "Frontier shape: stricter accept thresholds trade FPS for "
               "recall; the default setting is the >=1.3x FPS at <=1% "
               "recall-loss operating point.\n";
  return exit_code;
}

}  // namespace
}  // namespace tmerge::bench

int main(int argc, char** argv) {
  bool calibrate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--calibrate") calibrate = true;
  }
  int threads = tmerge::bench::BenchNumThreads();
  tmerge::bench::BenchEnv env = tmerge::bench::PrepareEnv(
      tmerge::sim::DatasetProfile::kMot17Like, /*num_videos=*/4,
      tmerge::bench::TrackerKind::kSort, /*window_length=*/2000,
      /*seed=*/424242, threads);
  if (calibrate) {
    tmerge::bench::RunCalibrate(env);
    return 0;
  }
  return tmerge::bench::RunFrontier(env, threads);
}
