// The batch workloads: prepared videos through merge::EvaluateDataset, one
// selector configuration after another, serially.
//
//   sampling    MOT-17-like whole-video windows; TMerge and LCB at two
//               tau_max, PS at two eta. The Thompson / LCB / PS sampling
//               loops do nearly all the work.
//   exhaustive  PathTrack-like half-overlapping windows with cross-window
//               feature reuse; BL and BL-B (B = 10). Embedding, cache
//               lookups, distance sweeps and ranking; no random draws.

#include <memory>
#include <ostream>
#include <stdexcept>

#include "probes.h"
#include "stats.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tmerge::merge::CandidateSelector;
using tmerge::merge::EvalResult;
using tmerge::merge::SelectorOptions;

struct BatchConfig {
  std::string layer;    ///< "select.<label>", the decorator's span layer.
  std::string display;  ///< e.g. "TMerge tau=10000".
  std::unique_ptr<CandidateSelector> selector;
  std::unique_ptr<TimedSelector> timed;
  SelectorOptions options;
};

struct Scenario {
  InputSpec spec;
  std::vector<BatchConfig> configs;
};

void AddConfig(Scenario& scenario, const std::string& label,
               const std::string& display,
               std::unique_ptr<CandidateSelector> selector,
               std::int32_t batch_size, std::uint64_t seed) {
  BatchConfig config;
  config.layer = "select." + label;
  config.display = display;
  config.selector = std::move(selector);
  config.timed = std::make_unique<TimedSelector>(*config.selector, config.layer);
  config.options.k_fraction = 0.05;
  config.options.batch_size = batch_size;
  config.options.seed = 11 + seed;
  scenario.configs.push_back(std::move(config));
}

Scenario MakeScenario(const std::string& workload, std::uint64_t seed) {
  Scenario scenario;
  scenario.spec.seed = seed;
  if (workload == "sampling") {
    scenario.spec.profile = tmerge::sim::DatasetProfile::kMot17Like;
    scenario.spec.videos = 10;
    scenario.spec.window.single_window = true;
    for (std::int64_t tau : {1000, 3000}) {
      tmerge::merge::TMergeOptions tmerge_options;
      tmerge_options.tau_max = tau;
      AddConfig(scenario, "tmerge", "TMerge tau=" + std::to_string(tau),
                std::make_unique<tmerge::merge::TMergeSelector>(tmerge_options),
                1, seed);
    }
    for (std::int64_t tau : {1000, 3000}) {
      AddConfig(scenario, "lcb", "LCB tau=" + std::to_string(tau),
                std::make_unique<tmerge::merge::LcbSelector>(tau), 1, seed);
    }
    for (double eta : {0.003, 0.01}) {
      AddConfig(scenario, "ps", "PS eta=" + std::to_string(eta),
                std::make_unique<tmerge::merge::ProportionalSelector>(eta), 1,
                seed);
    }
  } else if (workload == "exhaustive") {
    scenario.spec.profile = tmerge::sim::DatasetProfile::kPathTrackLike;
    scenario.spec.videos = 3;
    scenario.spec.window.single_window = false;
    scenario.spec.window.length = 2000;
    AddConfig(scenario, "bl", "BL",
              std::make_unique<tmerge::merge::BaselineSelector>(), 1, seed);
    AddConfig(scenario, "bl", "BL-B B=10",
              std::make_unique<tmerge::merge::BaselineSelector>(), 10, seed);
  } else {
    throw std::invalid_argument("unknown batch workload " + workload);
  }
  return scenario;
}

/// The outputs of one evaluation that must not change between passes or
/// with the decorators in place.
bool SameOutput(const EvalResult& a, const EvalResult& b) {
  const tmerge::reid::UsageStats& x = a.usage;
  const tmerge::reid::UsageStats& y = b.usage;
  return a.candidates == b.candidates &&
         a.simulated_seconds == b.simulated_seconds &&
         a.box_pairs_evaluated == b.box_pairs_evaluated &&
         a.hits == b.hits && a.windows == b.windows && a.pairs == b.pairs &&
         x.single_inferences == y.single_inferences &&
         x.batched_crops == y.batched_crops &&
         x.batch_calls == y.batch_calls &&
         x.distance_evals == y.distance_evals &&
         x.cache_hits == y.cache_hits && x.failed_embeds == y.failed_embeds &&
         x.gate_accepted == y.gate_accepted &&
         x.gate_rejected == y.gate_rejected &&
         x.gate_ambiguous == y.gate_ambiguous;
}

struct Pass {
  double wall_s = 0.0;
  long long frames = 0;
  std::vector<EvalResult> evals;
};

/// One pass: every configuration over every video, through the decorators
/// (`plain` bypasses them).
Pass RunPass(const WorkloadInputs& inputs, Scenario& scenario,
             bool plain = false) {
  Pass pass;
  long long start = NowNs();
  for (BatchConfig& config : scenario.configs) {
    CandidateSelector& selector =
        plain ? *config.selector : static_cast<CandidateSelector&>(*config.timed);
    pass.evals.push_back(tmerge::merge::EvaluateDataset(
        inputs.prepared, selector, config.options, /*num_threads=*/1));
    pass.frames += pass.evals.back().frames;
  }
  pass.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  return pass;
}

void CheckPass(const Pass& pass, const Pass& reference,
               const Scenario& scenario, const std::string& what,
               Report& report) {
  for (std::size_t c = 0; c < scenario.configs.size(); ++c) {
    report.Attempt();
    if (!SameOutput(pass.evals[c], reference.evals[c])) {
      report.Fail(1, what + ": " + scenario.configs[c].display +
                         " output differs from the reference pass");
    }
  }
}

std::vector<SelectTally> TakeTallies(Scenario& scenario) {
  std::vector<SelectTally> tallies;
  for (BatchConfig& config : scenario.configs) {
    tallies.push_back(config.timed->TakeTally());
  }
  return tallies;
}

void PrintReference(const Pass& reference, const Scenario& scenario,
                    std::ostream& out) {
  out << "=== per configuration (reference pass) ===\n";
  for (std::size_t c = 0; c < scenario.configs.size(); ++c) {
    const EvalResult& eval = reference.evals[c];
    out << "  " << scenario.configs[c].display << ": rec=" << eval.rec
        << " sim_fps=" << eval.fps << " box_pairs=" << eval.box_pairs_evaluated
        << " inferences=" << eval.usage.TotalInferences() << "\n";
  }
}

}  // namespace

void RunBatchWorkload(const RunOptions& options, Report& report,
                      std::ostream& out) {
  Scenario scenario = MakeScenario(options.workload, options.seed);
  SpanRecorder& recorder = SpanRecorder::Get();
  TracedTotals traced;

  std::vector<double> setup_s;
  std::unique_ptr<WorkloadInputs> inputs =
      SetUp(scenario.spec, options, report, traced, setup_s, out);

  // Warm-up pass through the undecorated library call: it fills lazy state
  // and is the reference every decorated pass, timed or traced, must
  // reproduce exactly, which is what shows the decorators are transparent.
  Pass reference = RunPass(*inputs, scenario, /*plain=*/true);
  PrintReference(reference, scenario, out);

  std::vector<double> frames_per_s;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> select_ms;
  const int embed_layer = recorder.Layer("reid.embed");
  const int pass_layer = recorder.Layer("pass");
  long long deadline = NowNs() + static_cast<long long>(options.seconds * 1e9);
  do {
    Pass pass = RunPass(*inputs, scenario);
    CheckPass(pass, reference, scenario, "timed pass", report);
    std::vector<SelectTally> tallies = TakeTallies(scenario);
    untraced_wall.push_back(pass.wall_s);
    frames_per_s.push_back(static_cast<double>(pass.frames) / pass.wall_s);
    for (const SelectTally& tally : tallies) {
      select_ms.insert(select_ms.end(), tally.latency_ms.begin(),
                       tally.latency_ms.end());
    }
    if (!options.trace) continue;

    // Traced pass over the same inputs: Embed spans come from swapping each
    // video's model for a forwarding TracedReidModel.
    for (auto& video : inputs->prepared) {
      video.model = std::make_shared<TracedReidModel>(video.model, embed_layer);
    }
    recorder.Start();
    Pass traced_pass;
    {
      ScopedSpan root(pass_layer);
      traced_pass = RunPass(*inputs, scenario);
    }
    recorder.Stop();
    for (auto& video : inputs->prepared) {
      video.model =
          static_cast<const TracedReidModel&>(*video.model).inner();
    }
    traced.layers.Add(recorder.Drain());
    traced_wall.push_back(traced_pass.wall_s);
    CheckPass(traced_pass, reference, scenario, "traced pass", report);
    tallies = TakeTallies(scenario);
    for (std::size_t c = 0; c < tallies.size(); ++c) {
      traced.selectors[scenario.configs[c].layer] += tallies[c];
    }
  } while (NowNs() < deadline);

  long long frames = 0;
  double simulated_s = 0.0;
  long long hits = 0;
  long long truth = 0;
  for (const EvalResult& eval : reference.evals) {
    frames += eval.frames;
    simulated_s += eval.simulated_seconds;
    hits += eval.hits;
    truth += eval.truth_pairs;
  }
  const long long passes = static_cast<long long>(untraced_wall.size());
  out << "pass walls (s):";
  for (double wall : untraced_wall) out << " " << wall;
  out << "\n";
  report.Add("setup_s", Median(setup_s), "s",
             static_cast<long long>(setup_s.size()));
  report.Add("frames_per_s", Median(frames_per_s), "frames/s", passes,
             "median over passes");
  report.Add("sim_fps", static_cast<double>(frames) / simulated_s,
             "frames/sim-s", static_cast<long long>(reference.evals.size()));
  report.Add("rec", static_cast<double>(hits) / static_cast<double>(truth),
             "fraction", truth, "micro-averaged over configurations");
  report.AddLatency("select_ms", select_ms, "ms");

  if (options.trace) {
    traced.fingerprint = inputs->fingerprint;
    // Every batch selector is outermost: its results are the pass's output.
    for (const auto& [layer, tally] : traced.selectors) {
      traced.outer_layers.push_back(layer);
    }
    traced.root_layer = "pass";
    traced.traced_wall_s = Median(traced_wall);
    traced.untraced_wall_s = Median(untraced_wall);
    AddCostModelAudit(inputs->prepared.front(), options.seed, report, out);
    AddPerLayerMetrics(traced, report, out);
  }
}

}  // namespace perfbench
