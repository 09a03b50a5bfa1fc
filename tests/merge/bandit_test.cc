#include "tmerge/merge/bandit.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/rng.h"

namespace tmerge::merge::internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Algorithm 4 by sorting both bound arrays and binary-searching them per
/// arm: the reference DecideUlb's order statistics must match bit for bit.
UlbPruned SortedUlb(const std::vector<double>& lower,
                    const std::vector<double>& upper,
                    const std::vector<std::int64_t>& pulls,
                    std::vector<std::uint8_t>& live, std::size_t k) {
  std::vector<double> lowers = lower, uppers = upper;
  std::sort(lowers.begin(), lowers.end());
  std::sort(uppers.begin(), uppers.end());
  UlbPruned pruned;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    if (live[p] == 0 || pulls[p] == 0) continue;
    auto possibly_below = static_cast<std::size_t>(
        std::lower_bound(lowers.begin(), lowers.end(), upper[p]) -
        lowers.begin());
    if (lower[p] < upper[p]) --possibly_below;
    if (possibly_below + 1 <= k) {
      live[p] = 0;
      ++pruned.in;
      continue;
    }
    auto certainly_below = static_cast<std::size_t>(
        std::lower_bound(uppers.begin(), uppers.end(), lower[p]) -
        uppers.begin());
    if (certainly_below >= k) {
      live[p] = 0;
      ++pruned.out;
    }
  }
  return pruned;
}

/// One arm's bounds as ArmTable::RunUlb forms them, from a few means and
/// pull counts so that exact ties are common.
struct Arm {
  double lower;
  double upper;
  std::int64_t pulls;
  std::uint8_t live;
};

Arm RandomArm(core::Rng& rng) {
  const double mean = 0.125 * static_cast<double>(rng.UniformInt(0, 8));
  const std::int64_t pulls = std::int64_t{1} << rng.UniformInt(0, 8);
  const double radius = std::sqrt(2.0 * std::log(4.0) / pulls);
  const std::uint8_t live = rng.Bernoulli(0.85) ? 1 : 0;
  switch (rng.UniformInt(0, 4)) {
    case 0:  // Never sampled: vacuous bounds.
      return {-kInf, kInf, 0, live};
    case 1:  // Exhausted: its exact score, no longer live.
      return {mean, mean, pulls, 0};
    case 2:  // Exhausted by failed pulls alone.
      return {0.5, 0.5, 0, 0};
    default:
      return {mean - radius, mean + radius, pulls, live};
  }
}

TEST(DecideUlbTest, MatchesSortAndSearch) {
  core::Rng rng(20240917);
  std::vector<double> scratch;
  std::int64_t pruned_in = 0, pruned_out = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 120));
    std::vector<double> lower, upper;
    std::vector<std::int64_t> pulls;
    std::vector<std::uint8_t> live;
    for (std::size_t p = 0; p < n; ++p) {
      const Arm arm = RandomArm(rng);
      lower.push_back(arm.lower);
      upper.push_back(arm.upper);
      pulls.push_back(arm.pulls);
      live.push_back(arm.live);
    }
    std::size_t k = 1;
    switch (trial % 5) {
      case 0:
        k = 1;
        break;
      case 1:
        k = n + static_cast<std::size_t>(rng.UniformInt(0, 2));  // k >= n.
        break;
      case 2:
        k = n - 1;
        break;
      default:
        k = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(n)));
    }
    std::vector<std::uint8_t> expected_live = live;
    const UlbPruned expected =
        SortedUlb(lower, upper, pulls, expected_live, k);
    const UlbPruned actual = DecideUlb(lower, upper, pulls, live, k, scratch);
    ASSERT_EQ(actual.in, expected.in) << "trial " << trial << " k " << k;
    ASSERT_EQ(actual.out, expected.out) << "trial " << trial << " k " << k;
    ASSERT_EQ(live, expected_live) << "trial " << trial << " k " << k;
    pruned_in += actual.in;
    pruned_out += actual.out;
  }
  // Both decisions were exercised, not just "keep everything".
  EXPECT_GT(pruned_in, 1000);
  EXPECT_GT(pruned_out, 1000);
}

TEST(DecideUlbTest, EdgeRanks) {
  // Three sampled arms and one never-sampled one. k = 0 prunes every
  // sampled arm out; k >= n prunes every sampled arm in.
  const std::vector<double> lower = {0.1, 0.3, 0.5, -kInf};
  const std::vector<double> upper = {0.2, 0.4, 0.6, kInf};
  const std::vector<std::int64_t> pulls = {4, 4, 4, 0};
  std::vector<double> scratch;
  for (std::size_t k : {0, 4, 9}) {
    std::vector<std::uint8_t> live(4, 1);
    const UlbPruned pruned = DecideUlb(lower, upper, pulls, live, k, scratch);
    EXPECT_EQ(pruned.in, k == 0 ? 0 : 3) << "k " << k;
    EXPECT_EQ(pruned.out, k == 0 ? 3 : 0) << "k " << k;
    EXPECT_EQ(live, (std::vector<std::uint8_t>{0, 0, 0, 1})) << "k " << k;
  }
  // k = 1: the never-sampled arm could still rank below the lowest arm,
  // which stays undecided; the other two are certainly out.
  std::vector<std::uint8_t> live(4, 1);
  const UlbPruned pruned = DecideUlb(lower, upper, pulls, live, 1, scratch);
  EXPECT_EQ(pruned.in, 0);
  EXPECT_EQ(pruned.out, 2);
  EXPECT_EQ(live, (std::vector<std::uint8_t>{1, 0, 0, 1}));
}

}  // namespace
}  // namespace tmerge::merge::internal
