#include <algorithm>
#include <iomanip>
#include <ostream>

#include "workloads.h"

namespace perfbench {
namespace {

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void LayerBreakdown::Add(const std::vector<Span>& spans) {
  std::vector<std::string> names = SpanRecorder::Get().LayerNames();
  std::vector<LayerTotals> totals = SummarizeLayers(spans, names.size());
  for (std::size_t layer = 0; layer < totals.size(); ++layer) {
    if (totals[layer].count == 0) continue;
    LayerTotals& sum = sums_[names[layer]];
    sum.total_s += totals[layer].total_s;
    sum.self_s += totals[layer].self_s;
    sum.count += totals[layer].count;
  }
  ++reps_;
}

LayerTotals LayerBreakdown::Get(const std::string& layer) const {
  LayerTotals mean;
  auto it = sums_.find(layer);
  if (it == sums_.end() || reps_ == 0) return mean;
  mean.total_s = it->second.total_s / reps_;
  mean.self_s = it->second.self_s / reps_;
  mean.count = it->second.count / reps_;
  return mean;
}

void LayerBreakdown::Print(std::ostream& out, const std::string& title,
                           double wall_s) const {
  std::vector<std::pair<std::string, LayerTotals>> rows;
  for (const auto& [name, sum] : sums_) rows.emplace_back(name, Get(name));
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  out << "=== " << title << " (per repetition, " << reps_
      << " traced; self = span minus the union of its children) ===\n"
      << "  " << std::left << std::setw(20) << "layer" << std::right
      << std::setw(12) << "calls" << std::setw(12) << "total_s"
      << std::setw(12) << "self_s" << std::setw(10) << "share\n";
  for (const auto& [name, totals] : rows) {
    out << "  " << std::left << std::setw(20) << name << std::right
        << std::setw(12) << totals.count << std::fixed << std::setprecision(4)
        << std::setw(12) << totals.total_s << std::setw(12) << totals.self_s
        << std::setprecision(1) << std::setw(9)
        << 100.0 * Ratio(totals.self_s, wall_s) << "%\n"
        << std::defaultfloat << std::setprecision(6);
  }
}

void AddPerLayerMetrics(const TracedTotals& traced, Report& report,
                        std::ostream& out) {
  const double reps = std::max(1, traced.layers.reps());
  const LayerBreakdown& setup = traced.setup;
  const LayerBreakdown& layers = traced.layers;
  auto tally_of = [&](const std::string& layer) {
    auto it = traced.selectors.find(layer);
    return it == traced.selectors.end() ? SelectTally() : it->second;
  };

  // prepare
  const std::vector<std::pair<std::string, std::string>> prepare = {
      {"sim.generate_s", "sim.generate"},
      {"detect.simulate_s", "detect.simulate"},
      {"track.run_s", "track.run"},
      {"window.build_s", "window.build"},
      {"metrics.gt_match_s", "metrics.gt_match"}};
  for (const auto& [metric, layer] : prepare) {
    LayerTotals totals = setup.Get(layer);
    report.Add(metric, totals.total_s, "s", totals.count);
  }
  const Fingerprint& print = traced.fingerprint;
  report.Add("track.tracks", static_cast<double>(print.tracks), "count", 1);
  report.Add("window.pairs", static_cast<double>(print.pairs), "count", 1);
  report.Add("metrics.truth_pairs", static_cast<double>(print.truth_pairs),
             "count", 1);

  // select
  for (const char* label : {"bl", "ps", "lcb", "tmerge"}) {
    std::string layer = std::string("select.") + label;
    LayerTotals totals = layers.Get(layer);
    SelectTally tally = tally_of(layer);
    double box_pairs = static_cast<double>(tally.box_pairs) / reps;
    report.Add(layer + ".self_s", totals.self_s, "s", totals.count);
    report.Add(layer + ".calls", static_cast<double>(tally.calls) / reps,
               "count", tally.calls);
    report.Add(layer + ".box_pairs", box_pairs, "count", tally.calls);
    report.Add(layer + ".ns_per_box_pair",
               Ratio(totals.self_s * 1e9, box_pairs), "ns", tally.calls);
  }
  SelectTally tmerge = tally_of("select.tmerge");
  report.Add("select.tmerge.ulb_pruned_ratio",
             Ratio(static_cast<double>(tmerge.ulb_pruned),
                   static_cast<double>(tmerge.pairs)),
             "ratio", tmerge.calls, "base: pairs");

  // reid, from the outermost decorator's SelectionResults
  SelectTally outer;
  for (const std::string& layer : traced.outer_layers) {
    outer += tally_of(layer);
  }
  const tmerge::reid::UsageStats& usage = outer.usage;
  LayerTotals embed = layers.Get("reid.embed");
  double inferences = static_cast<double>(usage.TotalInferences());
  report.Add("reid.embed_s", embed.total_s, "s", embed.count);
  report.Add("reid.embed_calls", static_cast<double>(embed.count), "count",
             embed.count);
  report.Add("reid.inferences", inferences / reps, "count", outer.calls);
  report.Add("reid.cache_hit_ratio",
             Ratio(static_cast<double>(usage.cache_hits),
                   static_cast<double>(usage.cache_hits) + inferences),
             "ratio", outer.calls, "base: hits + inferences");
  report.Add("reid.batch_calls", static_cast<double>(usage.batch_calls) / reps,
             "count", outer.calls);
  report.Add("reid.batch_fill",
             Ratio(static_cast<double>(usage.batched_crops),
                   static_cast<double>(usage.batch_calls)),
             "ratio", outer.calls, "crops per batch call");
  report.Add("reid.distance_evals",
             static_cast<double>(usage.distance_evals) / reps, "count",
             outer.calls);
  report.Add("reid.sim_s", outer.simulated_seconds / reps, "s", outer.calls);

  // gate
  LayerTotals gate = layers.Get("gate");
  SelectTally gate_tally = tally_of("gate");
  const tmerge::reid::UsageStats& verdicts = gate_tally.usage;
  report.Add("gate.self_s", gate.self_s, "s", gate.count);
  report.Add("gate.accepted", static_cast<double>(verdicts.gate_accepted) / reps,
             "count", gate_tally.calls);
  report.Add("gate.rejected", static_cast<double>(verdicts.gate_rejected) / reps,
             "count", gate_tally.calls);
  report.Add("gate.ambiguous",
             static_cast<double>(verdicts.gate_ambiguous) / reps, "count",
             gate_tally.calls);
  report.Add("gate.ambiguous_ratio",
             Ratio(static_cast<double>(verdicts.gate_ambiguous),
                   static_cast<double>(gate_tally.pairs)),
             "ratio", gate_tally.calls, "base: pairs");

  // stream
  const StreamCounters& counters = traced.stream;
  double merge_select_s = traced.merge_workers > 0 ? gate.total_s : 0.0;
  LayerTotals ingest = layers.Get("stream.ingest");
  LayerTotals finish = layers.Get("stream.finish");
  report.Add("stream.ingest_s", ingest.total_s, "s", ingest.count);
  report.Add("stream.finish_s", finish.total_s, "s", finish.count);
  report.Add("stream.merge_select_s", merge_select_s, "s", gate.count);
  report.Add("stream.worker_busy_ratio",
             Ratio(merge_select_s, traced.merge_workers * traced.traced_wall_s),
             "ratio", gate.count, "base: workers x wall");
  const std::vector<std::pair<std::string, double>> stream_counts = {
      {"stream.backpressure_events", counters.backpressure_events},
      {"stream.peak_queued_frames", counters.peak_queued_frames},
      {"stream.merge_jobs", counters.merge_jobs},
      {"stream.merge_jobs_deferred", counters.merge_jobs_deferred}};
  for (const auto& [name, value] : stream_counts) {
    report.Add(name, value / reps, "count", traced.layers.reps());
  }
  report.Add("stream.defer_per_job",
             Ratio(counters.merge_jobs_deferred, counters.merge_jobs), "ratio",
             traced.layers.reps(), "base: merge jobs");
  report.Add("stream.ingest_jobs_deferred",
             counters.ingest_jobs_deferred / reps, "count",
             traced.layers.reps());
  report.Add("stream.force_flushes", counters.force_flushes / reps, "count",
             traced.layers.reps());
  report.Add("stream.stall_flushes", counters.stall_flushes / reps, "count",
             traced.layers.reps());

  // the trace itself
  LayerTotals root = layers.Get(traced.root_layer);
  report.Add("trace.wall_s", traced.traced_wall_s, "s", traced.layers.reps());
  report.Add("trace.overhead_ratio",
             Ratio(traced.traced_wall_s - traced.untraced_wall_s,
                   traced.untraced_wall_s),
             "ratio", traced.layers.reps(), "base: untraced wall");
  report.Add("trace.unattributed_s", root.self_s, "s", root.count,
             "root span minus its children");
  report.Add("trace.spans_dropped",
             static_cast<double>(SpanRecorder::Get().dropped()), "count", 1);

  setup.Print(out, "traced setup", setup.Get("setup").total_s);
  layers.Print(out, "traced run", traced.traced_wall_s);
  out << "  untraced " << traced.untraced_wall_s << " s, traced "
      << traced.traced_wall_s << " s per repetition; unattributed "
      << root.self_s << " s; spans dropped "
      << SpanRecorder::Get().dropped() << "\n";
}

std::unique_ptr<WorkloadInputs> SetUp(const InputSpec& spec,
                                      const RunOptions& options,
                                      Report& report, TracedTotals& traced,
                                      std::vector<double>& setup_s,
                                      std::ostream& out) {
  // Generation plus detect/track/window/GT match, repeated so the reported
  // time is a median; every repeat must yield the same inputs.
  constexpr int kSetupRepeats = 5;
  SpanRecorder& recorder = SpanRecorder::Get();
  std::unique_ptr<WorkloadInputs> inputs;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    if (options.trace) recorder.Start();
    long long start = NowNs();
    std::unique_ptr<WorkloadInputs> built = BuildInputs(spec);
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - start));
    recorder.Stop();
    if (!inputs) {
      inputs = std::move(built);
      continue;
    }
    report.Attempt();
    if (!(built->fingerprint == inputs->fingerprint)) {
      report.Fail(1, "set-up repeat generated different inputs");
    }
  }
  if (options.trace) traced.setup.Add(recorder.Drain());
  report.Attempt();
  if (!MatchesPrepareVideo(*inputs)) {
    report.Fail(1, "step-by-step preparation differs from merge::PrepareVideo");
  }
  out << "inputs: " << inputs->fingerprint.ToString() << "\n";
  return inputs;
}

}  // namespace perfbench
