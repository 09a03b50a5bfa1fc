// Property tests for ApplyMerges: the merged result is a function of the
// *partition* the accepted pairs induce — insertion order, duplicate pairs
// and track-ID relabeling must not change it — and applying the same pairs
// twice is a fixed point. Random instances are generated with core::Rng so
// every run replays the same cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "testing/test_util.h"
#include "tmerge/core/rng.h"
#include "tmerge/merge/merger.h"

namespace tmerge::merge {
namespace {

using tmerge::testing::MakeResult;
using tmerge::testing::MakeTrack;

// A random instance: `num_tracks` tracks on disjoint frame ranges (so box
// dedup never kicks in and box counts are conserved), plus `num_pairs`
// random distinct-endpoint pairs.
struct Instance {
  track::TrackingResult result;
  std::vector<metrics::TrackPairKey> pairs;
};

Instance MakeInstance(core::Rng& rng, int num_tracks, int num_pairs) {
  Instance instance;
  std::vector<track::Track> tracks;
  for (int t = 0; t < num_tracks; ++t) {
    auto id = static_cast<track::TrackId>(t + 1);
    auto count = static_cast<std::int32_t>(rng.UniformInt(1, 8));
    tracks.push_back(MakeTrack(id, /*first_frame=*/t * 20, count,
                               /*gt_id=*/0));
  }
  instance.result = MakeResult(std::move(tracks));
  for (int p = 0; p < num_pairs; ++p) {
    auto a = static_cast<track::TrackId>(rng.UniformInt(1, num_tracks));
    auto b = static_cast<track::TrackId>(rng.UniformInt(1, num_tracks));
    if (a == b) continue;
    instance.pairs.push_back(metrics::MakePairKey(a, b));
  }
  return instance;
}

// Canonical partition: each merged track as the sorted set of the
// detection ids it holds (detection ids survive relabeling, unlike track
// ids), the whole result as a set of those sets.
std::set<std::vector<std::uint64_t>> Partition(
    const track::TrackingResult& result) {
  std::set<std::vector<std::uint64_t>> partition;
  for (const auto& track : result.tracks) {
    std::vector<std::uint64_t> detections;
    detections.reserve(track.boxes.size());
    for (const auto& box : track.boxes) detections.push_back(box.detection_id);
    std::sort(detections.begin(), detections.end());
    partition.insert(std::move(detections));
  }
  return partition;
}

// Full structural equality (ids, box order, geometry) — stricter than
// Partition, for the order-invariance check where ids must match too.
void ExpectSameResult(const track::TrackingResult& a,
                      const track::TrackingResult& b) {
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (std::size_t t = 0; t < a.tracks.size(); ++t) {
    EXPECT_EQ(a.tracks[t].id, b.tracks[t].id);
    ASSERT_EQ(a.tracks[t].boxes.size(), b.tracks[t].boxes.size());
    for (std::size_t i = 0; i < a.tracks[t].boxes.size(); ++i) {
      const auto& box_a = a.tracks[t].boxes[i];
      const auto& box_b = b.tracks[t].boxes[i];
      EXPECT_EQ(box_a.frame, box_b.frame);
      EXPECT_EQ(box_a.detection_id, box_b.detection_id);
      EXPECT_EQ(box_a.box.x, box_b.box.x);
      EXPECT_EQ(box_a.box.y, box_b.box.y);
      EXPECT_EQ(box_a.confidence, box_b.confidence);
    }
  }
}

// Reference partition computed with a plain map-based DSU over track ids —
// independent of core::UnionFind, so the test does not assume the unit
// under test's own helper is correct.
std::map<track::TrackId, track::TrackId> ReferenceRoots(
    const track::TrackingResult& result,
    const std::vector<metrics::TrackPairKey>& pairs) {
  std::map<track::TrackId, track::TrackId> parent;
  for (const auto& track : result.tracks) parent[track.id] = track.id;
  auto find = [&](track::TrackId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [a, b] : pairs) {
    if (!parent.contains(a) || !parent.contains(b)) continue;
    track::TrackId ra = find(a), rb = find(b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::map<track::TrackId, track::TrackId> roots;
  for (const auto& [id, unused] : parent) roots[id] = find(id);
  return roots;
}

TEST(MergePropertiesTest, OutcomeInvariantUnderPairInsertionOrder) {
  core::Rng rng(101);
  for (int instance_index = 0; instance_index < 20; ++instance_index) {
    Instance instance = MakeInstance(rng, /*num_tracks=*/12, /*num_pairs=*/10);
    track::TrackingResult reference =
        ApplyMerges(instance.result, instance.pairs);
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      std::vector<metrics::TrackPairKey> reordered = instance.pairs;
      std::shuffle(reordered.begin(), reordered.end(), rng.engine());
      ExpectSameResult(ApplyMerges(instance.result, reordered), reference);
    }
    // Duplicated pairs change nothing either.
    std::vector<metrics::TrackPairKey> doubled = instance.pairs;
    doubled.insert(doubled.end(), instance.pairs.begin(),
                   instance.pairs.end());
    std::shuffle(doubled.begin(), doubled.end(), rng.engine());
    ExpectSameResult(ApplyMerges(instance.result, doubled), reference);
  }
}

TEST(MergePropertiesTest, PartitionInvariantUnderTrackIdRelabeling) {
  core::Rng rng(202);
  for (int instance_index = 0; instance_index < 20; ++instance_index) {
    Instance instance = MakeInstance(rng, /*num_tracks=*/10, /*num_pairs=*/8);
    std::set<std::vector<std::uint64_t>> reference =
        Partition(ApplyMerges(instance.result, instance.pairs));

    // Random permutation of ids 1..N onto a sparse range (x -> perm[x]).
    std::vector<track::TrackId> image;
    for (int i = 0; i < 10; ++i) {
      image.push_back(static_cast<track::TrackId>(100 + 7 * i));
    }
    std::shuffle(image.begin(), image.end(), rng.engine());
    auto relabel = [&](track::TrackId id) { return image[id - 1]; };

    track::TrackingResult relabeled = instance.result;
    for (auto& track : relabeled.tracks) track.id = relabel(track.id);
    std::vector<metrics::TrackPairKey> relabeled_pairs;
    for (const auto& [a, b] : instance.pairs) {
      relabeled_pairs.push_back(metrics::MakePairKey(relabel(a), relabel(b)));
    }
    EXPECT_EQ(Partition(ApplyMerges(relabeled, relabeled_pairs)), reference)
        << "instance " << instance_index;
  }
}

TEST(MergePropertiesTest, MatchesReferenceUnionFindPartition) {
  core::Rng rng(303);
  for (int instance_index = 0; instance_index < 20; ++instance_index) {
    Instance instance = MakeInstance(rng, /*num_tracks=*/15, /*num_pairs=*/12);
    track::TrackingResult merged =
        ApplyMerges(instance.result, instance.pairs);

    std::map<track::TrackId, track::TrackId> roots =
        ReferenceRoots(instance.result, instance.pairs);
    // Group original ids by reference root and express each group as its
    // sorted detection-id set, built from the unmerged input.
    std::map<track::TrackId, std::vector<std::uint64_t>> groups;
    for (const auto& track : instance.result.tracks) {
      auto& group = groups[roots[track.id]];
      for (const auto& box : track.boxes) group.push_back(box.detection_id);
    }
    std::set<std::vector<std::uint64_t>> expected;
    for (auto& [root, detections] : groups) {
      std::sort(detections.begin(), detections.end());
      expected.insert(detections);
    }
    EXPECT_EQ(Partition(merged), expected) << "instance " << instance_index;

    // Merged track ids are the minimum of each group (stable naming), and
    // boxes are conserved (disjoint frame ranges: nothing deduped).
    for (const auto& track : merged.tracks) {
      EXPECT_EQ(roots[track.id], track.id);
    }
    EXPECT_EQ(merged.TotalBoxes(), instance.result.TotalBoxes());
  }
}

TEST(MergePropertiesTest, ApplyMergesIsIdempotent) {
  core::Rng rng(404);
  for (int instance_index = 0; instance_index < 20; ++instance_index) {
    Instance instance = MakeInstance(rng, /*num_tracks=*/12, /*num_pairs=*/10);
    track::TrackingResult once = ApplyMerges(instance.result, instance.pairs);
    track::TrackingResult twice = ApplyMerges(once, instance.pairs);
    ExpectSameResult(twice, once);
    // And a third application through the canonical partition, for luck.
    EXPECT_EQ(Partition(ApplyMerges(twice, instance.pairs)), Partition(once));
  }
}

TEST(MergePropertiesTest, TransitiveClosureIndependentOfChainOrder) {
  // A chain a-b, b-c, c-d ... presented in any order collapses to one
  // track holding every box.
  core::Rng rng(505);
  for (int instance_index = 0; instance_index < 10; ++instance_index) {
    constexpr int kTracks = 8;
    Instance instance = MakeInstance(rng, kTracks, /*num_pairs=*/0);
    std::vector<metrics::TrackPairKey> chain;
    for (int t = 1; t < kTracks; ++t) {
      chain.push_back(metrics::MakePairKey(static_cast<track::TrackId>(t),
                                           static_cast<track::TrackId>(t + 1)));
    }
    std::shuffle(chain.begin(), chain.end(), rng.engine());
    track::TrackingResult merged = ApplyMerges(instance.result, chain);
    ASSERT_EQ(merged.tracks.size(), 1u);
    EXPECT_EQ(merged.tracks[0].id, 1);
    EXPECT_EQ(merged.TotalBoxes(), instance.result.TotalBoxes());
  }
}

}  // namespace
}  // namespace tmerge::merge
