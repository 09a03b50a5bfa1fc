#ifndef TMERGE_MERGE_SELECTOR_H_
#define TMERGE_MERGE_SELECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tmerge/merge/pair_store.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/reid_guard.h"
#include "tmerge/reid/reid_model.h"

namespace tmerge::reid {
class EmbedScheduler;
}  // namespace tmerge::reid

namespace tmerge::merge {

/// Options shared by every candidate selector.
struct SelectorOptions {
  /// K in [0, 1]: the selector returns the top ceil(K * |P_c|) candidate
  /// pairs (paper §II). The paper's default across experiments is 5%.
  double k_fraction = 0.05;
  /// Batch size B of the GPU-accelerated "-B" variants; 1 selects the
  /// unbatched single-inference path.
  std::int32_t batch_size = 1;
  /// Simulated hardware costs (see reid/cost_model.h).
  reid::CostModel cost_model;
  /// Seed for the selector's own randomness (sampling, Bernoulli trials).
  std::uint64_t seed = 7;
  /// Retry / circuit-breaker policy for the fault-tolerant selectors
  /// (TMerge, LCB), which pull features through a per-window
  /// reid::ReidGuard. BL and PS stay on the infallible path on purpose:
  /// they embed every (eta-sampled) crop exactly once with no sampling
  /// loop to degrade, so a fault policy has nothing to decide for them —
  /// an embed failure there is a hard error, not a pull to skip. Inert
  /// unless fault/failpoint.h failpoints are armed.
  reid::ReidFaultPolicy fault_policy;
  /// Multiplier on the budget-bound selectors' sampling budget (TMerge and
  /// LCB scale tau_max by this, rounded, floored at one pull). Exactly 1.0
  /// — the default — leaves the construction-time budget untouched, bit
  /// for bit; tmerge::gate::GatedSelector sets it to the ambiguous
  /// fraction of a gated window so the bandit budget tracks the work the
  /// gate left behind.
  double budget_scale = 1.0;
  /// Optional shared embed scheduler (reid/embed_scheduler.h). Non-owning;
  /// must outlive every Select call. Null — the default — means no
  /// prefetching; today only tmerge::gate::GatedSelector reads it (for
  /// GateConfig::prefetch_ambiguous).
  reid::EmbedScheduler* embed_scheduler = nullptr;
};

/// Output of one selector run on one window.
struct SelectionResult {
  /// Estimated top-K polyonymous candidates, the paper's P-hat*_{c|K}.
  std::vector<metrics::TrackPairKey> candidates;
  /// Simulated model time consumed (drives the FPS metric).
  double simulated_seconds = 0.0;
  /// Operation counters.
  reid::UsageStats usage;
  /// BBox-pair distance evaluations performed by the algorithm's sampling
  /// loop (tau for the bandit methods; all/eta-fraction for BL/PS).
  std::int64_t box_pairs_evaluated = 0;
  /// Sum of the normalized distances the sampling loop evaluated. Divided
  /// by box_pairs_evaluated and compared against the minimum exact score,
  /// this yields the average regret R(tau_max) of §IV-E (Eq. 11): sampling
  /// biased toward low-score pairs drives it down as tau grows.
  double sum_sampled_distance = 0.0;
  /// Pairs ULB (Algorithm 4) froze as certainly inside / outside the top-K
  /// (TMerge only; zero for other selectors or with ULB disabled).
  std::int64_t ulb_pruned_in = 0;
  std::int64_t ulb_pruned_out = 0;
  /// Arm pulls that failed after exhausting retries (injected ReID faults;
  /// always zero with no failpoints armed). Failed pulls consume budget
  /// and cost but never update posteriors — DESIGN.md "Fault model &
  /// degraded mode".
  std::int64_t failed_pulls = 0;
  /// ReID retry attempts made beyond first attempts.
  std::int64_t reid_retries = 0;
  /// True when the window's ReID circuit breaker opened: the tail of the
  /// window ran in degraded (spatial-prior-only) mode.
  bool degraded = false;
};

/// The work counters of a run of windows, listed and reduced in one place.
/// Batch (merge::EvalResult) and stream (stream::CameraStreamResult,
/// stream::StreamResult) results derive from it, so both paths fold each
/// window and sum partial tallies through the same members, in the same
/// floating-point order. The members are named, not operators, so a call
/// on a derived result never reads as covering its other fields.
struct WorkTally {
  /// Operation counters.
  reid::UsageStats usage;
  /// Simulated model time consumed (drives the FPS metric).
  double simulated_seconds = 0.0;
  /// Windows with a nonempty pair set, and the pairs across them.
  std::int64_t windows = 0;
  std::int64_t pairs = 0;
  std::int64_t box_pairs_evaluated = 0;
  /// Fault-tolerance aggregates (zero with no failpoints armed): arm pulls
  /// lost to injected ReID faults, retry attempts, and windows whose
  /// circuit breaker opened (DESIGN.md "Fault model & degraded mode").
  std::int64_t failed_pulls = 0;
  std::int64_t reid_retries = 0;
  std::int64_t degraded_windows = 0;

  /// Folds one window's selection over `window_pairs` candidate pairs.
  void AddWindow(const SelectionResult& result, std::int64_t window_pairs);
  /// Adds every field of `other`.
  void Add(const WorkTally& other);
  /// Turns a sum over `trials` runs into their mean. Integer counters
  /// round to nearest, halves up (every counter is non-negative).
  void MeanOver(int trials);
  /// True when every field equals `other`'s exactly (bit-identity).
  bool SameWork(const WorkTally& other) const { return *this == other; }

 private:
  // Private so a derived result is not equality-comparable: a public
  // operator== would compare two EvalResults while ignoring rec and
  // candidates.
  bool operator==(const WorkTally& other) const = default;
};

/// Per-window selector seed: decorrelates windows but keeps runs
/// reproducible. Batch and stream both derive seeds here, which is what
/// makes their SelectionResults bit-identical.
std::uint64_t WindowSeed(std::uint64_t seed, std::int32_t window_index);

/// Folds one window's selection into the default obs registry
/// (evaluate.*, reid.*, gate.* and pipeline.* counters). Call it once per
/// window that AddWindow folds, so the exported counters agree with the
/// result tally on the batch and stream paths.
void PublishWindowObs(const SelectionResult& result,
                      std::int64_t window_pairs);

/// Returns ceil(k_fraction * num_pairs), clamped to [0, num_pairs].
std::size_t TopKCount(double k_fraction, std::size_t num_pairs);

/// Interface of every polyonymous-candidate selection algorithm (BL, PS,
/// LCB, TMerge and their batched variants). Selectors are stateless across
/// calls; the feature cache carries reusable embeddings between windows of
/// the same video.
///
/// Concurrency: merge::EvaluateDataset shares one selector object across
/// worker threads (one video per thread), so Select must not mutate
/// selector members — all per-run state belongs on the stack, with the
/// caller-owned cache/meter carrying anything that outlives one window.
/// Every shipped selector only reads its construction-time options.
class CandidateSelector {
 public:
  virtual ~CandidateSelector() = default;

  /// Selects the top-K candidate pairs of one window.
  virtual SelectionResult Select(const PairContext& context,
                                 const reid::ReidModel& model,
                                 reid::FeatureCache& cache,
                                 const SelectorOptions& options) = 0;

  /// Display name, e.g. "TMerge" or "BL-B".
  virtual std::string name() const = 0;
};

namespace internal {

/// Ranks pairs ascending by score and returns the top-k pair keys, breaking
/// ties by pair index for determinism. Uses partial selection
/// (nth_element + prefix sort) when k < n; because the (score, index)
/// comparator is a strict total order, the output is element-for-element
/// identical to a full sort (pinned by SelectorTest.TopKMatchesFullSort).
std::vector<metrics::TrackPairKey> TopKByScore(
    const PairContext& context, const std::vector<double>& scores,
    std::size_t k);

/// Applies SelectorOptions::budget_scale to a construction-time sampling
/// budget: llround(tau_max * scale), floored at one pull. A scale of
/// exactly 1.0 is guaranteed to return tau_max unchanged (the pass-through
/// bit-identity contract of the gated pipeline).
std::int64_t ScaledBudget(std::int64_t tau_max, double scale);

}  // namespace internal

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_SELECTOR_H_
