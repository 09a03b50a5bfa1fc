#ifndef TMERGE_REID_FEATURE_CACHE_H_
#define TMERGE_REID_FEATURE_CACHE_H_

#include <cstdint>
#include <vector>

#include "tmerge/core/status.h"
#include "tmerge/reid/cost_model.h"
#include "tmerge/reid/feature.h"
#include "tmerge/reid/feature_store.h"
#include "tmerge/reid/reid_model.h"

namespace tmerge::reid {

/// Open-addressed hash index detection_id -> FeatureRef: flat array of
/// (key, value) slots, linear probing, power-of-two capacity. One cache
/// line per successful lookup in the common case, versus the bucket-node
/// pointer chase of std::unordered_map — this is the lookup half of the
/// selector hot path (the distance half lives in reid/distance_kernels.h).
///
/// Values are 32-bit FeatureRef indexes; two reserved values mark empty
/// and tombstoned slots, so a slot is 12 bytes of payload with no
/// out-of-line metadata. Erase (the "reid.cache.evict" fault path — real
/// workloads never evict mid-video) tombstones the slot; tombstones are
/// dropped at the next growth rehash. Rehashing moves slots but — unlike
/// the unordered_map it replaces — never touches feature storage, which
/// lives in the FeatureStore arena; that is what turns the storage
/// contract from reference stability into handle stability.
class DetectionIndex {
 public:
  /// Returns the handle for `key`, or an invalid ref when absent.
  /// Defined inline: this is the per-crop lookup on the selector hot
  /// path, and the call into another translation unit measurably costs
  /// (cache-lookup microbenchmark in bench_micro).
  FeatureRef Find(std::uint64_t key) const {
    if (slots_.empty()) return FeatureRef{};
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = MixKey(key) & mask;
    // An empty slot terminates the probe chain; tombstones do not (the
    // key may live past a tombstoned slot it once probed over).
    while (slots_[pos].value != kEmpty) {
      if (slots_[pos].value != kTombstone && slots_[pos].key == key) {
        return FeatureRef{slots_[pos].value};
      }
      pos = (pos + 1) & mask;
    }
    return FeatureRef{};
  }

  /// Inserts key -> ref. `key` must not be present (callers insert only
  /// after a failed Find).
  void Insert(std::uint64_t key, FeatureRef ref);

  /// Removes `key` if present; returns whether it was.
  bool Erase(std::uint64_t key);

  std::size_t size() const { return size_; }
  void Clear();

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = kEmpty;
  };

  /// Fibonacci (multiplicative) mixer. Detection ids are near-sequential
  /// per video; without a mixer, linear probing over a power-of-two table
  /// would turn runs of consecutive ids into one long probe chain. The
  /// odd multiplier spreads consecutive ids across the table and the fold
  /// seeds the masked low bits from the high half. Deliberately NOT the
  /// full splitmix64 finalizer: its two extra multiplies sit on the
  /// critical path of every probe (the slot address depends on the whole
  /// mix chain) and cost more than they buy on this key distribution.
  static std::uint64_t MixKey(std::uint64_t key) {
    key *= 0x9e3779b97f4a7c15ull;
    return key ^ (key >> 32);
  }

  void Grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< Live entries.
  std::size_t used_ = 0;  ///< Live entries plus tombstones.
};

/// Memoizes ReID features per detection, implementing the paper's reuse
/// optimization (§IV-B: "if either of the BBoxes' feature vectors has been
/// extracted in previous iterations it can be reused"). Inference cost is
/// charged to the meter only on cache misses; hits are recorded but free.
///
/// Storage contract — handle stability: feature floats live in a
/// FeatureStore slab arena owned by the cache; lookups hand out FeatureRef
/// handles and FeatureView views of that arena. Handles, and the data
/// pointers views resolve to, stay valid until Clear() or destruction —
/// inserts (including the interleaved inserts and index rehashes of one
/// GetOrEmbedBatch call) never invalidate them, because growth appends
/// slabs without moving existing ones and index rehashes move only the
/// 12-byte index slots. This replaces the pre-slab contract ("references
/// into the unordered_map survive rehash"); feature_cache_test.cc carries
/// the regression test for the new contract.
///
/// Concurrency contract — thread-confined, not thread-safe: the pipeline
/// creates one cache per video and confines it to the worker evaluating
/// that video (see EvaluateDataset), so the class carries no mutex and no
/// TMERGE_GUARDED_BY annotations on purpose. Confinement cannot be
/// expressed to the thread-safety analysis (there is no lock to name), so
/// it is enforced one level up: EvaluateDataset's per-index ownership is
/// annotated and linted, the tsan CI job exercises the 2/8-thread paths,
/// and DESIGN.md "Static analysis & enforced invariants" records the rule
/// that sharing a FeatureCache across videos requires adding a lock AND
/// the annotations with it.
class FeatureCache {
 public:
  /// Returns a view of the cached feature for `crop`, embedding (and
  /// charging one single inference) on a miss.
  FeatureView GetOrEmbed(const CropRef& crop, const ReidModel& model,
                         InferenceMeter& meter);

  /// Batched variant: embeds all uncached crops in one batched inference
  /// call (the TMerge-B / BL-B / PS-B GPU path), then returns views for
  /// every requested crop, in order.
  std::vector<FeatureView> GetOrEmbedBatch(const std::vector<CropRef>& crops,
                                           const ReidModel& model,
                                           InferenceMeter& meter);

  /// Fallible variant of GetOrEmbed for fault-tolerant callers (see
  /// reid::ReidGuard, which adds retry/backoff/breaker policy on top).
  /// Three failpoints apply (catalog in fault/failpoint.h):
  ///   - "reid.cache.evict": the cached entry is dropped from the index
  ///     before lookup (its arena slot is orphaned — the arena is
  ///     append-only), forcing a fresh (charged) embed into a new slot;
  ///   - "reid.cache.miss": the lookup is forced to miss without eviction
  ///     (a re-embed is charged and refreshes the slot in place, so
  ///     existing handles see the fresh floats);
  ///   - "reid.embed" (via ReidModel::TryEmbed, keyed with `salt` so retry
  ///     attempts draw independently): the embed itself errors. The failed
  ///     attempt charges full single-inference time to the meter
  ///     (failed_embeds in UsageStats) and caches nothing.
  /// An injected "reid.latency" spike additionally charges its simulated
  /// seconds as a penalty. With no failpoints armed this is GetOrEmbed,
  /// charge for charge.
  core::Result<FeatureView> TryGetOrEmbed(const CropRef& crop,
                                          const ReidModel& model,
                                          InferenceMeter& meter,
                                          std::uint64_t salt = 0);

  /// Fallible variant of GetOrEmbedBatch: one single-shot attempt per crop
  /// (no retries — ReidGuard layers those by re-calling with the failed
  /// subset and a new salt). Failed crops yield invalid views and charge
  /// the per-item batch cost via ChargeFailedBatchItem; the batch charge
  /// covers successful misses only. The same failpoints as TryGetOrEmbed
  /// apply, with the same keys, so single and batched runs see the same
  /// fault schedule. With no failpoints armed this is GetOrEmbedBatch,
  /// charge for charge.
  std::vector<FeatureView> TryGetOrEmbedBatch(
      const std::vector<CropRef>& crops, const ReidModel& model,
      InferenceMeter& meter, std::uint64_t salt = 0);

  /// Inserts a feature computed OUTSIDE the cache (the EmbedScheduler's
  /// compute/commit split: workers embed into private slots, the owning
  /// thread commits here). Charges nothing — the scheduler meters the
  /// inference itself. When the detection is already cached the existing
  /// entry wins (handle stability: a committed handle must never be
  /// re-pointed) and the duplicate is dropped; schedulers dedup against
  /// the cache before computing, so a hit here means the crop raced an
  /// earlier commit of the same group, which the scheduler forbids.
  FeatureView Put(std::uint64_t detection_id, const FeatureVector& feature);

  /// True if the crop is already cached (no cost either way).
  bool Contains(std::uint64_t detection_id) const {
    return index_.Find(detection_id).valid();
  }

  /// Handle lookup with no embed fallback (no cost either way); invalid
  /// when absent.
  FeatureRef Find(std::uint64_t detection_id) const {
    return index_.Find(detection_id);
  }

  /// Resolves a handle returned by Find.
  FeatureView View(FeatureRef ref) const { return store_.View(ref); }

  /// Cached (indexed) features; orphaned arena slots are not counted.
  std::size_t size() const { return index_.size(); }

  void Clear() {
    index_.Clear();
    store_.Clear();
  }

 private:
  /// Appends a freshly embedded feature and indexes it.
  FeatureRef Insert(std::uint64_t detection_id, const FeatureVector& feature);

  FeatureStore store_;
  DetectionIndex index_;
};

}  // namespace tmerge::reid

#endif  // TMERGE_REID_FEATURE_CACHE_H_
