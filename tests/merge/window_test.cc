#include "tmerge/merge/window.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace tmerge::merge {
namespace {

using testing::MakeResult;
using testing::MakeTrack;

TEST(PairAdmissibleTest, DisjointTracksAdmissible) {
  track::Track a = MakeTrack(1, 0, 50, 0);
  track::Track b = MakeTrack(2, 100, 50, 0);
  EXPECT_TRUE(PairAdmissible(a, b));
  EXPECT_TRUE(PairAdmissible(b, a));
}

TEST(PairAdmissibleTest, CoexistingTracksRejected) {
  // An object cannot be two simultaneously visible tracks.
  track::Track a = MakeTrack(1, 0, 100, 0);
  track::Track b = MakeTrack(2, 50, 100, 1);
  EXPECT_FALSE(PairAdmissible(a, b));
}

TEST(PairAdmissibleTest, SmallOverlapTolerated) {
  track::Track a = MakeTrack(1, 0, 50, 0);    // Frames 0..49.
  track::Track b = MakeTrack(2, 48, 50, 0);   // Overlap = 2 frames.
  EXPECT_TRUE(PairAdmissible(a, b));
  track::Track c = MakeTrack(3, 45, 50, 0);   // Overlap = 5 frames.
  EXPECT_FALSE(PairAdmissible(a, c));
}

TEST(PairAdmissibleTest, SameIdRejected) {
  track::Track a = MakeTrack(1, 0, 50, 0);
  track::Track b = MakeTrack(1, 100, 50, 0);
  EXPECT_FALSE(PairAdmissible(a, b));
}

TEST(BuildWindowsTest, SingleWindowContainsAllAdmissiblePairs) {
  track::TrackingResult result = MakeResult(
      {MakeTrack(1, 0, 50, 0), MakeTrack(2, 100, 50, 0),
       MakeTrack(3, 200, 50, 1)},
      400);
  WindowConfig config;
  config.single_window = true;
  std::vector<WindowPairs> windows = BuildWindows(result, config);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].pairs.size(), 3u);  // All three pairs disjoint.
  EXPECT_EQ(windows[0].start_frame, 0);
}

TEST(BuildWindowsTest, EmptyResultNoWindows) {
  track::TrackingResult result = MakeResult({}, 100);
  EXPECT_TRUE(BuildWindows(result, {}).empty());
}

TEST(BuildWindowsTest, HalfOverlappingWindows) {
  // Tracks born at 0, 600, 1200: with L=1000 the half stride is 500, so
  // they land in buckets 0, 1, 2.
  track::TrackingResult result = MakeResult(
      {MakeTrack(1, 0, 100, 0), MakeTrack(2, 600, 100, 1),
       MakeTrack(3, 1200, 100, 2)},
      2000);
  WindowConfig config;
  config.length = 1000;
  std::vector<WindowPairs> windows = BuildWindows(result, config);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].new_tracks.size(), 1u);
  EXPECT_EQ(windows[1].new_tracks.size(), 1u);
  EXPECT_EQ(windows[2].new_tracks.size(), 1u);
  // Window 1 pairs track 2 with window 0's track 1; window 2 pairs track 3
  // with track 2 but NOT with track 1 (two buckets apart).
  ASSERT_EQ(windows[1].pairs.size(), 1u);
  EXPECT_EQ(windows[1].pairs[0], (metrics::TrackPairKey{1, 2}));
  ASSERT_EQ(windows[2].pairs.size(), 1u);
  EXPECT_EQ(windows[2].pairs[0], (metrics::TrackPairKey{2, 3}));
}

TEST(BuildWindowsTest, NoPairVisitedTwice) {
  // Random-ish layout; every unordered pair must appear in at most one
  // window (the paper's "visiting any track pair more than once" guard).
  std::vector<track::Track> tracks;
  for (int i = 0; i < 20; ++i) {
    tracks.push_back(MakeTrack(i + 1, (i * 137) % 1800, 60, i));
  }
  track::TrackingResult result = MakeResult(std::move(tracks), 2000);
  WindowConfig config;
  config.length = 600;
  std::vector<WindowPairs> windows = BuildWindows(result, config);
  std::map<metrics::TrackPairKey, int> seen;
  for (const auto& window : windows) {
    for (const auto& pair : window.pairs) ++seen[pair];
  }
  for (const auto& [pair, count] : seen) {
    EXPECT_EQ(count, 1) << pair.first << "," << pair.second;
  }
}

TEST(BuildWindowsTest, AdjacentBucketPairsCovered) {
  // Fragmentation across a window boundary must be pair-able: track ends
  // just before the boundary, fragment starts just after.
  track::TrackingResult result = MakeResult(
      {MakeTrack(1, 400, 90, 0), MakeTrack(2, 510, 90, 0)}, 2000);
  WindowConfig config;
  config.length = 1000;  // Buckets of 500: tracks in buckets 0 and 1.
  std::vector<WindowPairs> windows = BuildWindows(result, config);
  bool found = false;
  for (const auto& window : windows) {
    for (const auto& pair : window.pairs) {
      if (pair == metrics::TrackPairKey{1, 2}) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BuildWindowsTest, PairsMoreThanTwoBucketsApartUnreachable) {
  // With L < 2*Lmax a fragment pair can span more than two buckets and is
  // lost — the effect the paper's Fig. 9 measures.
  track::TrackingResult result = MakeResult(
      {MakeTrack(1, 0, 90, 0), MakeTrack(2, 1100, 90, 0)}, 3000);
  WindowConfig config;
  config.length = 1000;  // Buckets 0 and 2: not adjacent.
  std::vector<WindowPairs> windows = BuildWindows(result, config);
  for (const auto& window : windows) {
    for (const auto& pair : window.pairs) {
      EXPECT_NE(pair, (metrics::TrackPairKey{1, 2}));
    }
  }
}

TEST(BuildWindowsTest, WindowFramesBounded) {
  track::TrackingResult result =
      MakeResult({MakeTrack(1, 0, 50, 0), MakeTrack(2, 900, 50, 1)}, 950);
  WindowConfig config;
  config.length = 400;
  for (const auto& window : BuildWindows(result, config)) {
    EXPECT_GE(window.start_frame, 0);
    EXPECT_LT(window.end_frame, 950);
    EXPECT_LE(window.start_frame, window.end_frame);
  }
}

// Property sweep over window lengths: for any L, (a) no unordered pair
// appears in more than one window, (b) every admissible pair of tracks
// born in the same or adjacent half-window buckets is covered, and (c)
// every emitted pair is such a pair and sits in the window of the later
// bucket. Together the three pin each P_c to Eq. (1).
class WindowCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowCoverageTest, UniqueAndCovered) {
  std::int32_t length = GetParam();
  std::vector<track::Track> tracks;
  for (int i = 0; i < 24; ++i) {
    tracks.push_back(MakeTrack(i + 1, (i * 211) % 2400, 70, i));
  }
  track::TrackingResult result = MakeResult(std::move(tracks), 2600);
  WindowConfig config;
  config.length = length;
  std::vector<WindowPairs> windows = BuildWindows(result, config);

  std::map<metrics::TrackPairKey, int> seen;
  for (const auto& window : windows) {
    for (const auto& pair : window.pairs) ++seen[pair];
  }
  for (const auto& [pair, count] : seen) {
    EXPECT_EQ(count, 1) << "L=" << length;
  }

  // Every birth lies before frame 2400, so no bucket is clamped.
  std::int32_t half = std::max(1, length / 2);
  for (std::size_t i = 0; i < result.tracks.size(); ++i) {
    for (std::size_t j = i + 1; j < result.tracks.size(); ++j) {
      const auto& a = result.tracks[i];
      const auto& b = result.tracks[j];
      if (!PairAdmissible(a, b)) continue;
      std::int32_t bucket_a = a.first_frame() / half;
      std::int32_t bucket_b = b.first_frame() / half;
      if (std::abs(bucket_a - bucket_b) <= 1) {
        EXPECT_TRUE(seen.contains(metrics::MakePairKey(a.id, b.id)))
            << "L=" << length << " pair " << a.id << "," << b.id;
      }
    }
  }

  std::map<track::TrackId, const track::Track*> by_id;
  for (const auto& t : result.tracks) by_id[t.id] = &t;
  for (const auto& window : windows) {
    for (const auto& [id_a, id_b] : window.pairs) {
      const track::Track& a = *by_id.at(id_a);
      const track::Track& b = *by_id.at(id_b);
      std::int32_t bucket_a = a.first_frame() / half;
      std::int32_t bucket_b = b.first_frame() / half;
      EXPECT_TRUE(PairAdmissible(a, b))
          << "L=" << length << " pair " << id_a << "," << id_b;
      EXPECT_LE(std::abs(bucket_a - bucket_b), 1)
          << "L=" << length << " pair " << id_a << "," << id_b;
      EXPECT_EQ(window.window_index, std::max(bucket_a, bucket_b))
          << "L=" << length << " pair " << id_a << "," << id_b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, WindowCoverageTest,
                         ::testing::Values(200, 500, 1000, 2000, 2600,
                                           4000));

}  // namespace
}  // namespace tmerge::merge
