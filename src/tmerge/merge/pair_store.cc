#include "tmerge/merge/pair_store.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "tmerge/core/status.h"

namespace tmerge::merge {

reid::CropRef MakeCropRef(const track::TrackedBox& box) {
  return reid::CropRef{box.detection_id, box.gt_id, box.visibility,
                       box.glared, box.noise_seed};
}

PairContext::PairContext(const track::TrackingResult& result,
                         std::vector<metrics::TrackPairKey> pairs)
    : result_(&result), pairs_(std::move(pairs)) {
  std::unordered_map<track::TrackId, std::size_t> index_of;
  index_of.reserve(result.tracks.size());
  for (std::size_t i = 0; i < result.tracks.size(); ++i) {
    index_of.emplace(result.tracks[i].id, i);
  }
  track_indices_.reserve(pairs_.size());
  for (const auto& [a, b] : pairs_) {
    auto ita = index_of.find(a);
    auto itb = index_of.find(b);
    TMERGE_CHECK(ita != index_of.end() && itb != index_of.end());
    track_indices_.emplace_back(ita->second, itb->second);
  }
  // Materialize each paired track's CropRefs once; a track in k pairs is
  // converted once, not k times, and the selectors' inner loops index a
  // flat vector instead of rebuilding CropRefs per probe.
  track_crops_.resize(result.tracks.size());
  for (const auto& [ia, ib] : track_indices_) {
    for (std::size_t t : {ia, ib}) {
      if (!track_crops_[t].empty() || result.tracks[t].boxes.empty()) continue;
      track_crops_[t].reserve(result.tracks[t].boxes.size());
      for (const auto& box : result.tracks[t].boxes) {
        track_crops_[t].push_back(MakeCropRef(box));
      }
    }
  }
}

const std::vector<reid::CropRef>& PairContext::CropsA(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return track_crops_[track_indices_[index].first];
}

const std::vector<reid::CropRef>& PairContext::CropsB(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return track_crops_[track_indices_[index].second];
}

const track::Track& PairContext::TrackA(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return result_->tracks[track_indices_[index].first];
}

const track::Track& PairContext::TrackB(std::size_t index) const {
  TMERGE_CHECK(index < track_indices_.size());
  return result_->tracks[track_indices_[index].second];
}

std::int64_t PairContext::BoxPairCount(std::size_t index) const {
  return static_cast<std::int64_t>(TrackA(index).size()) *
         static_cast<std::int64_t>(TrackB(index).size());
}

double PairContext::SpatialDistance(std::size_t index) const {
  const track::Track& a = TrackA(index);
  const track::Track& b = TrackB(index);
  // Order by time: earlier track's last box vs later track's first box.
  const track::Track& earlier = a.last_frame() <= b.last_frame() ? a : b;
  const track::Track& later = a.last_frame() <= b.last_frame() ? b : a;
  return core::Distance(earlier.boxes.back().box.Center(),
                        later.boxes.front().box.Center());
}

std::int32_t PairContext::TemporalGap(std::size_t index) const {
  const track::Track& a = TrackA(index);
  const track::Track& b = TrackB(index);
  std::int32_t gap = std::max(a.first_frame() - b.last_frame(),
                              b.first_frame() - a.last_frame());
  return std::max(gap, 0);
}

std::int64_t PairContext::TotalBoxPairs() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < num_pairs(); ++i) total += BoxPairCount(i);
  return total;
}

namespace {

constexpr std::int64_t kEmptyCell = -1;

/// The multiplicative mixer of reid::DetectionIndex: cell ids are dense
/// small integers, and the multiply spreads them over the table.
std::uint64_t MixCell(std::int64_t cell) {
  std::uint64_t key = static_cast<std::uint64_t>(cell) * 0x9e3779b97f4a7c15ull;
  return key ^ (key >> 32);
}

/// Linear probe: the slot holding `cell`, or the empty slot where it goes.
std::size_t FindSlot(const std::vector<std::int64_t>& table,
                     std::int64_t cell) {
  const std::size_t mask = table.size() - 1;
  std::size_t pos = MixCell(cell) & mask;
  while (table[pos] != kEmptyCell && table[pos] != cell) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

}  // namespace

BoxPairSampler::BoxPairSampler(std::int64_t rows, std::int64_t cols,
                               std::int64_t draws)
    : BoxPairSampler(rows, cols) {
  // Rejection sampling records at most half the grid before the dense
  // switch, and the set grows by doubling from 16 slots while at most half
  // full.
  const std::int64_t total = rows * cols;
  const std::int64_t recorded = std::min(draws, (total + 1) / 2);
  if (recorded <= 0) return;
  const std::size_t slots = std::bit_ceil(
      std::max<std::size_t>(16, 2 * static_cast<std::size_t>(recorded)));
  if (static_cast<std::size_t>((total + 7) / 8) <=
      slots * sizeof(std::int64_t)) {
    bitmap_.assign(static_cast<std::size_t>((total + 63) / 64), 0);
  } else {
    sampled_.assign(slots, kEmptyCell);
  }
}

bool BoxPairSampler::ContainsSampled(std::int64_t cell) const {
  if (!bitmap_.empty()) return (bitmap_[cell >> 6] >> (cell & 63)) & 1;
  return !sampled_.empty() && sampled_[FindSlot(sampled_, cell)] == cell;
}

bool BoxPairSampler::InsertSampled(std::int64_t cell) {
  if (!bitmap_.empty()) {
    std::uint64_t& word = bitmap_[cell >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (cell & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  }
  if (static_cast<std::size_t>(sampled_count_ + 1) * 2 > sampled_.size()) {
    std::vector<std::int64_t> old(
        std::max<std::size_t>(16, sampled_.size() * 2), kEmptyCell);
    old.swap(sampled_);
    for (std::int64_t kept : old) {
      if (kept != kEmptyCell) sampled_[FindSlot(sampled_, kept)] = kept;
    }
  }
  std::int64_t& slot = sampled_[FindSlot(sampled_, cell)];
  if (slot == cell) return false;
  slot = cell;
  return true;
}

std::pair<std::int32_t, std::int32_t> BoxPairSampler::Sample(core::Rng& rng) {
  TMERGE_CHECK(!Exhausted());
  std::int64_t total = rows_ * cols_;
  // Rejection sampling while the grid is sparsely sampled; once more than
  // half is used, switch to drawing from the materialized remainder.
  if (!dense_mode_ && sampled_count_ * 2 < total) {
    for (;;) {
      std::int64_t cell = rng.UniformInt(0, total - 1);
      if (InsertSampled(cell)) {
        ++sampled_count_;
        return {static_cast<std::int32_t>(cell / cols_),
                static_cast<std::int32_t>(cell % cols_)};
      }
    }
  }
  if (!dense_mode_) {
    dense_mode_ = true;
    remaining_.reserve(total - sampled_count_);
    for (std::int64_t cell = 0; cell < total; ++cell) {
      if (!ContainsSampled(cell)) remaining_.push_back(cell);
    }
    sampled_ = {};  // No longer needed; release the record.
    bitmap_ = {};
  }
  TMERGE_CHECK(!remaining_.empty());
  std::size_t pick = rng.Index(remaining_.size());
  std::int64_t cell = remaining_[pick];
  remaining_[pick] = remaining_.back();
  remaining_.pop_back();
  ++sampled_count_;
  return {static_cast<std::int32_t>(cell / cols_),
          static_cast<std::int32_t>(cell % cols_)};
}

}  // namespace tmerge::merge
