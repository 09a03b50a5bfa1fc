#include "tmerge/reid/feature_cache.h"

#include <utility>

#include "tmerge/fault/failpoint.h"

namespace tmerge::reid {

void DetectionIndex::Insert(std::uint64_t key, FeatureRef ref) {
  // Grow at 3/8 occupancy, counting tombstones: probe chains lengthen
  // with used slots, not live ones. Plain linear probing (no SIMD group
  // scan) degrades fast past ~50% load — every extra probe is a
  // data-dependent branch the predictor gets wrong — so the table trades
  // slack space (16-byte slots, still far below the map-node layout it
  // replaced) for ~1.2-probe average chains.
  if (slots_.empty() || (used_ + 1) * 8 > slots_.size() * 3) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = MixKey(key) & mask;
  while (slots_[pos].value != kEmpty && slots_[pos].value != kTombstone) {
    pos = (pos + 1) & mask;
  }
  if (slots_[pos].value == kEmpty) ++used_;
  slots_[pos].key = key;
  slots_[pos].value = ref.index;
  ++size_;
}

bool DetectionIndex::Erase(std::uint64_t key) {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = MixKey(key) & mask;
  while (slots_[pos].value != kEmpty) {
    if (slots_[pos].value != kTombstone && slots_[pos].key == key) {
      slots_[pos].value = kTombstone;
      --size_;
      return true;
    }
    pos = (pos + 1) & mask;
  }
  return false;
}

void DetectionIndex::Clear() {
  slots_.clear();
  size_ = 0;
  used_ = 0;
}

void DetectionIndex::Grow() {
  // Live entries only are carried over, so growth also sweeps tombstones.
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 64 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  used_ = size_;
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.value == kEmpty || slot.value == kTombstone) continue;
    std::size_t pos = MixKey(slot.key) & mask;
    while (slots_[pos].value != kEmpty) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

FeatureRef FeatureCache::Insert(std::uint64_t detection_id,
                                const FeatureVector& feature) {
  FeatureRef ref = store_.Append(feature);
  index_.Insert(detection_id, ref);
  return ref;
}

FeatureView FeatureCache::Put(std::uint64_t detection_id,
                              const FeatureVector& feature) {
  FeatureRef ref = index_.Find(detection_id);
  if (ref.valid()) return store_.View(ref);
  return store_.View(Insert(detection_id, feature));
}

FeatureView FeatureCache::GetOrEmbed(const CropRef& crop,
                                     const ReidModel& model,
                                     InferenceMeter& meter) {
  FeatureRef ref = index_.Find(crop.detection_id);
  if (ref.valid()) {
    meter.RecordCacheHit();
    return store_.View(ref);
  }
  meter.ChargeSingle();
  return store_.View(Insert(crop.detection_id, model.Embed(crop)));
}

core::Result<FeatureView> FeatureCache::TryGetOrEmbed(const CropRef& crop,
                                                      const ReidModel& model,
                                                      InferenceMeter& meter,
                                                      std::uint64_t salt) {
  const std::uint64_t id = crop.detection_id;
  if (TMERGE_FAILPOINT("reid.cache.evict", id ^ salt)) {
    index_.Erase(id);
  }
  FeatureRef ref = index_.Find(id);
  const bool forced_miss =
      ref.valid() && TMERGE_FAILPOINT("reid.cache.miss", id ^ salt);
  if (ref.valid() && !forced_miss) {
    meter.RecordCacheHit();
    return core::Result<FeatureView>(store_.View(ref));
  }
  // A latency spike charges its simulated seconds on top of the normal
  // inference charge, whether or not the embed then succeeds.
  const double spike = TMERGE_FAILPOINT_LATENCY("reid.latency", id ^ salt);
  if (spike > 0.0) meter.ChargePenalty(spike);
  core::Result<FeatureVector> embedded = model.TryEmbed(crop, salt);
  if (!embedded.ok()) {
    meter.ChargeFailedSingle();
    return embedded.status();
  }
  meter.ChargeSingle();
  if (forced_miss) {
    // Refresh in place: the entry survived eviction but the lookup was
    // forced to miss, so the re-embed result overwrites its arena slot
    // and every outstanding handle sees the fresh floats.
    store_.Overwrite(ref, std::move(embedded).value());
    return core::Result<FeatureView>(store_.View(ref));
  }
  return core::Result<FeatureView>(
      store_.View(Insert(id, std::move(embedded).value())));
}

std::vector<FeatureView> FeatureCache::GetOrEmbedBatch(
    const std::vector<CropRef>& crops, const ReidModel& model,
    InferenceMeter& meter) {
  std::int64_t misses = 0;
  for (const auto& crop : crops) {
    if (index_.Find(crop.detection_id).valid()) {
      meter.RecordCacheHit();
      continue;
    }
    Insert(crop.detection_id, model.Embed(crop));
    ++misses;
  }
  meter.ChargeBatch(misses);

  std::vector<FeatureView> out;
  out.reserve(crops.size());
  for (const auto& crop : crops) {
    out.push_back(store_.View(index_.Find(crop.detection_id)));
  }
  return out;
}

std::vector<FeatureView> FeatureCache::TryGetOrEmbedBatch(
    const std::vector<CropRef>& crops, const ReidModel& model,
    InferenceMeter& meter, std::uint64_t salt) {
  // Views are filled during the pass (not via a final lookup) so a
  // forced-miss whose re-embed failed reports failure even when a stale
  // entry survives in the index. Handle stability makes this safe.
  std::vector<FeatureView> out(crops.size());
  std::int64_t misses = 0;
  for (std::size_t i = 0; i < crops.size(); ++i) {
    const CropRef& crop = crops[i];
    const std::uint64_t id = crop.detection_id;
    if (TMERGE_FAILPOINT("reid.cache.evict", id ^ salt)) {
      index_.Erase(id);
    }
    FeatureRef ref = index_.Find(id);
    const bool forced_miss =
        ref.valid() && TMERGE_FAILPOINT("reid.cache.miss", id ^ salt);
    if (ref.valid() && !forced_miss) {
      meter.RecordCacheHit();
      out[i] = store_.View(ref);
      continue;
    }
    const double spike = TMERGE_FAILPOINT_LATENCY("reid.latency", id ^ salt);
    if (spike > 0.0) meter.ChargePenalty(spike);
    core::Result<FeatureVector> embedded = model.TryEmbed(crop, salt);
    if (!embedded.ok()) {
      meter.ChargeFailedBatchItem(1);
      continue;
    }
    if (forced_miss) {
      store_.Overwrite(ref, std::move(embedded).value());
      out[i] = store_.View(ref);
    } else {
      out[i] = store_.View(Insert(id, std::move(embedded).value()));
    }
    ++misses;
  }
  meter.ChargeBatch(misses);
  return out;
}

}  // namespace tmerge::reid
