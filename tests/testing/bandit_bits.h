#ifndef TMERGE_TESTS_TESTING_BANDIT_BITS_H_
#define TMERGE_TESTS_TESTING_BANDIT_BITS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge::testing {

/// FNV-1a over 64-bit words, byte by byte, as
/// SyntheticReidModelTest.EmbedBitsMatchReference hashes features.
class Fnv1a {
 public:
  void Add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(std::int64_t value) { Add(static_cast<std::uint64_t>(value)); }
  void Add(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }

  /// Folds every field of one window's selection: the candidates, the bit
  /// patterns of both sums, every usage counter and every fault counter.
  void Add(const merge::SelectionResult& result) {
    Add(static_cast<std::int64_t>(result.candidates.size()));
    for (const auto& [a, b] : result.candidates) {
      Add(static_cast<std::int64_t>(a));
      Add(static_cast<std::int64_t>(b));
    }
    Add(result.simulated_seconds);
    const reid::UsageStats& usage = result.usage;
    for (std::int64_t counter :
         {usage.single_inferences, usage.batched_crops, usage.batch_calls,
          usage.distance_evals, usage.cache_hits, usage.failed_embeds,
          usage.gate_accepted, usage.gate_rejected, usage.gate_ambiguous,
          result.box_pairs_evaluated, result.ulb_pruned_in,
          result.ulb_pruned_out, result.failed_pulls, result.reid_retries,
          static_cast<std::int64_t>(result.degraded)}) {
      Add(counter);
    }
    Add(result.sum_sampled_distance);
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Three KITTI-like videos cut into 150-frame windows: 14 windows of 1 to
/// 70 pairs, 16 of the 206 pairs with fewer than 200 BBox pairs, so arms
/// run out and ULB decides pairs both ways within the budgets below.
/// Prepared once per process.
inline const std::vector<merge::PreparedVideo>& BanditBitsDataset() {
  static const sim::Dataset dataset = sim::MakeDataset(
      sim::DatasetProfile::kKittiLike, /*num_videos=*/3, /*seed=*/61);
  static const std::vector<merge::PreparedVideo> videos = [] {
    track::SortTracker tracker;
    merge::PipelineConfig config;
    config.window.length = 150;
    return merge::PrepareDataset(dataset, tracker, config);
  }();
  return videos;
}

/// Runs every bandit configuration — LCB, LCB-B, TMerge, TMerge-B, and
/// TMerge without BetaInit and without ULB — at budget scales 1 and 0.37
/// over every window of BanditBitsDataset(), seeding each window as
/// EvaluateSelector does, and calls `visit` on each window's
/// SelectionResult in that order.
template <typename Visit>
void ForEachBanditSelection(Visit visit) {
  merge::TMergeOptions tmerge;
  tmerge.tau_max = 1500;
  merge::TMergeOptions no_beta_init = tmerge;
  no_beta_init.use_beta_init = false;
  merge::TMergeOptions no_ulb = tmerge;
  no_ulb.use_ulb = false;
  struct Case {
    std::shared_ptr<merge::CandidateSelector> selector;
    std::int32_t batch_size;
  };
  const auto lcb = std::make_shared<merge::LcbSelector>(1000);
  const auto tmerge_selector = std::make_shared<merge::TMergeSelector>(tmerge);
  const Case cases[] = {
      {lcb, 1},
      {lcb, 10},
      {tmerge_selector, 1},
      {tmerge_selector, 10},
      {std::make_shared<merge::TMergeSelector>(no_beta_init), 1},
      {std::make_shared<merge::TMergeSelector>(no_ulb), 1},
  };
  for (const Case& c : cases) {
    for (double budget_scale : {1.0, 0.37}) {
      merge::SelectorOptions options;
      options.batch_size = c.batch_size;
      options.budget_scale = budget_scale;
      for (const merge::PreparedVideo& video : BanditBitsDataset()) {
        reid::FeatureCache cache;
        for (const merge::WindowPairs& window : video.windows) {
          if (window.pairs.empty()) continue;
          merge::PairContext context(video.tracking, window.pairs);
          options.seed = merge::WindowSeed(/*seed=*/5, window.window_index);
          visit(c.selector->Select(context, *video.model, cache, options));
        }
      }
    }
  }
}

}  // namespace tmerge::testing

#endif  // TMERGE_TESTS_TESTING_BANDIT_BITS_H_
