// TMerge's Thompson round draws one value per bucket of arms that share a
// posterior Beta(S, F), not one per arm (internal::PosteriorBuckets). These
// tests hold it to the per-arm reference in law: at fixed seeds, two-sample
// tests at alpha = 0.001 compare the winner's bucket (chi-square), the
// winning value and the B-th smallest value (Kolmogorov-Smirnov), and how
// often each bucket lands in a TMerge-B round (z-tests, Bonferroni).

#include "tmerge/merge/tmerge.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/beta.h"
#include "tmerge/core/rng.h"

namespace tmerge::merge::internal {
namespace {

/// m arms that share Beta(s, f).
struct Group {
  double s;
  double f;
  int m;
};

/// A late window: BetaInit's Beta(1, 2) on 150 barely sampled arms and the
/// flat prior on 40, shared general shapes with low means, both
/// closed-form families, and well-sampled singletons.
const std::vector<Group> kLateWindow = {
    {1, 2, 150}, {1, 1, 40},  {2, 1, 8},   {2, 60, 20},
    {3, 200, 6}, {2, 2, 30},  {5, 9, 12},  {1, 400, 1},
    {2, 500, 1}, {4, 900, 1}, {3, 150, 1}, {8, 4, 3}};

/// Where the F = 1 family competes: Beta(2, 1) on 60 arms against small
/// general buckets and singletons.
const std::vector<Group> kHighMeans = {
    {2, 1, 60}, {3, 1, 20}, {2, 2, 10}, {3, 2, 10}, {1, 1, 1},
    {2, 1, 1},  {5, 2, 4},  {1, 3, 2},  {2, 5, 3},  {7, 3, 1}};

/// Every arm's posterior, and the group it came from.
struct Arms {
  std::vector<core::BetaPosterior> posteriors;
  std::vector<std::size_t> group;
};

Arms Expand(const std::vector<Group>& groups) {
  Arms arms;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int i = 0; i < groups[g].m; ++i) {
      arms.posteriors.emplace_back(groups[g].s, groups[g].f);
      arms.group.push_back(g);
    }
  }
  return arms;
}

/// One sample of rounds: per round, the group of each chosen arm in
/// ascending theta order, the winning arm, the winning theta and the
/// take-th smallest.
struct Rounds {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> winner;
  std::vector<double> first;
  std::vector<double> last;
};

/// The reference: one theta ~ Beta(S, F) per arm, the `take` smallest.
Rounds PerArmRounds(const Arms& arms, std::size_t take, int rounds,
                    std::uint64_t seed) {
  core::Rng rng(seed);
  Rounds out;
  std::vector<std::pair<double, std::size_t>> draws;
  for (int r = 0; r < rounds; ++r) {
    draws.clear();
    for (std::size_t p = 0; p < arms.posteriors.size(); ++p) {
      draws.emplace_back(arms.posteriors[p].Sample(rng), p);
    }
    std::partial_sort(draws.begin(), draws.begin() + take, draws.end());
    std::vector<std::size_t> groups;
    for (std::size_t i = 0; i < take; ++i) {
      groups.push_back(arms.group[draws[i].second]);
    }
    out.groups.push_back(std::move(groups));
    out.winner.push_back(draws[0].second);
    out.first.push_back(draws[0].first);
    out.last.push_back(draws[take - 1].first);
  }
  return out;
}

Rounds BucketRounds(const Arms& arms, std::size_t take, int rounds,
                    std::uint64_t seed) {
  core::Rng rng(seed);
  PosteriorBuckets buckets(arms.posteriors.size());
  for (std::size_t p = 0; p < arms.posteriors.size(); ++p) {
    buckets.Insert(p, arms.posteriors[p]);
  }
  Rounds out;
  std::vector<std::size_t> chosen;
  for (int r = 0; r < rounds; ++r) {
    buckets.DrawRound(take, rng, chosen);
    EXPECT_EQ(chosen.size(), take);
    std::vector<std::size_t> groups;
    for (std::size_t p : chosen) groups.push_back(arms.group[p]);
    out.groups.push_back(std::move(groups));
    out.winner.push_back(chosen[0]);
    out.first.push_back(buckets.theta(0));
    out.last.push_back(buckets.theta(take - 1));
  }
  return out;
}

/// Two-sample Kolmogorov-Smirnov statistic.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / a.size() -
                              static_cast<double>(j) / b.size()));
  }
  return d;
}

/// Critical two-sample KS distance at alpha = 0.001 for equal sizes n.
double KsCritical(std::size_t n) {
  return std::sqrt(-0.5 * std::log(0.001 / 2.0)) *
         std::sqrt(2.0 / static_cast<double>(n));
}

/// Chi-square critical value at alpha = 0.001 (Wilson-Hilferty).
double ChiSquareCritical(int dof) {
  const double a = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - a + 3.090232 * std::sqrt(a), 3.0);
}

/// Two-sample chi-square homogeneity test of the winner's group. Groups
/// with fewer than 20 wins in both samples together are pooled.
void ExpectSameWinnerLaw(const Rounds& reference, const Rounds& buckets,
                         std::size_t num_groups) {
  std::vector<double> ref_wins(num_groups + 1, 0.0);
  std::vector<double> bucket_wins(num_groups + 1, 0.0);
  for (const auto& round : reference.groups) ref_wins[round[0]] += 1.0;
  for (const auto& round : buckets.groups) bucket_wins[round[0]] += 1.0;
  std::vector<double> ref_cells, bucket_cells;
  double ref_pooled = 0.0, bucket_pooled = 0.0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (ref_wins[g] + bucket_wins[g] < 20.0) {
      ref_pooled += ref_wins[g];
      bucket_pooled += bucket_wins[g];
    } else {
      ref_cells.push_back(ref_wins[g]);
      bucket_cells.push_back(bucket_wins[g]);
    }
  }
  if (ref_pooled + bucket_pooled > 0.0) {
    ref_cells.push_back(ref_pooled);
    bucket_cells.push_back(bucket_pooled);
  }
  const double n_ref = static_cast<double>(reference.groups.size());
  const double n_bucket = static_cast<double>(buckets.groups.size());
  double chi2 = 0.0;
  for (std::size_t c = 0; c < ref_cells.size(); ++c) {
    const double total = ref_cells[c] + bucket_cells[c];
    const double e_ref = total * n_ref / (n_ref + n_bucket);
    const double e_bucket = total * n_bucket / (n_ref + n_bucket);
    chi2 += (ref_cells[c] - e_ref) * (ref_cells[c] - e_ref) / e_ref +
            (bucket_cells[c] - e_bucket) * (bucket_cells[c] - e_bucket) /
                e_bucket;
  }
  const int dof = static_cast<int>(ref_cells.size()) - 1;
  ASSERT_GE(dof, 4) << "too few competing groups to test";
  EXPECT_LT(chi2, ChiSquareCritical(dof)) << "dof " << dof;
}

/// Per group, the mean number of its arms in a round: two-sample z-tests,
/// Bonferroni-corrected to alpha = 0.001 over the groups.
void ExpectSameMembership(const Rounds& reference, const Rounds& buckets,
                          std::size_t num_groups) {
  auto moments = [&](const Rounds& rounds, std::size_t g) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& round : rounds.groups) {
      const double count =
          static_cast<double>(std::count(round.begin(), round.end(), g));
      sum += count;
      sum_sq += count * count;
    }
    const double n = static_cast<double>(rounds.groups.size());
    const double mean = sum / n;
    return std::make_pair(mean, (sum_sq / n - mean * mean) / n);
  };
  // Two-sided normal quantile for 0.001 / 12 (at most 12 groups here).
  constexpr double kZ = 3.94;
  ASSERT_LE(num_groups, 12u);
  int tested = 0;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const auto [ref_mean, ref_var] = moments(reference, g);
    const auto [bucket_mean, bucket_var] = moments(buckets, g);
    const double variance = ref_var + bucket_var;
    if (variance == 0.0) {
      EXPECT_EQ(ref_mean, bucket_mean) << "group " << g;
      continue;
    }
    ++tested;
    EXPECT_LT(std::fabs(ref_mean - bucket_mean) / std::sqrt(variance), kZ)
        << "group " << g << ": " << ref_mean << " vs " << bucket_mean;
  }
  EXPECT_GE(tested, 6);
}

/// Chi-square test that the winners drawn from group 0 are spread
/// uniformly over its arms (the first arms of the set).
void ExpectUniformWithinGroup(const Rounds& rounds, const Group& group) {
  std::vector<double> wins(static_cast<std::size_t>(group.m), 0.0);
  double total = 0.0;
  for (std::size_t arm : rounds.winner) {
    if (arm < wins.size()) {
      wins[arm] += 1.0;
      total += 1.0;
    }
  }
  const double expected = total / static_cast<double>(wins.size());
  ASSERT_GE(expected, 20.0);
  double chi2 = 0.0;
  for (double count : wins) {
    chi2 += (count - expected) * (count - expected) / expected;
  }
  EXPECT_LT(chi2, ChiSquareCritical(group.m - 1));
}

constexpr int kRounds = 40000;

TEST(ThompsonRoundLawTest, WinnerMatchesPerArmDraws) {
  for (const auto* groups : {&kLateWindow, &kHighMeans}) {
    const Arms arms = Expand(*groups);
    const Rounds reference = PerArmRounds(arms, 1, kRounds, 101);
    const Rounds buckets = BucketRounds(arms, 1, kRounds, 202);
    ExpectSameWinnerLaw(reference, buckets, groups->size());
    EXPECT_LT(KsStatistic(reference.first, buckets.first),
              KsCritical(kRounds));
    ExpectUniformWithinGroup(buckets, groups->front());
  }
}

TEST(ThompsonRoundLawTest, TopBMatchesPerArmDraws) {
  for (std::size_t take : {3, 10}) {
    for (const auto* groups : {&kLateWindow, &kHighMeans}) {
      SCOPED_TRACE(take);
      const Arms arms = Expand(*groups);
      const Rounds reference = PerArmRounds(arms, take, kRounds / 2, 303);
      const Rounds buckets = BucketRounds(arms, take, kRounds / 2, 404);
      ExpectSameWinnerLaw(reference, buckets, groups->size());
      ExpectSameMembership(reference, buckets, groups->size());
      EXPECT_LT(KsStatistic(reference.first, buckets.first),
                KsCritical(kRounds / 2));
      EXPECT_LT(KsStatistic(reference.last, buckets.last),
                KsCritical(kRounds / 2));
    }
  }
}

TEST(PosteriorBucketsTest, TracksArmsAcrossKeys) {
  PosteriorBuckets buckets(6);
  core::BetaPosterior prior, init(1.0, 2.0), seen(3.0, 5.0);
  buckets.Insert(0, prior);
  buckets.Insert(1, init);
  buckets.Insert(2, init);
  buckets.Insert(4, seen);
  EXPECT_EQ(buckets.size(), 4u);
  EXPECT_TRUE(buckets.contains(2));
  EXPECT_FALSE(buckets.contains(3));
  buckets.Update(1, seen);  // A Bernoulli update moves the arm.
  buckets.Erase(0);         // The last arm of Beta(1, 1) leaves.
  EXPECT_EQ(buckets.size(), 3u);
  EXPECT_FALSE(buckets.contains(0));
  // A lone arm takes a new key in place, moving last, then first.
  buckets.Update(2, core::BetaPosterior(9.0, 2.0));
  buckets.Update(2, core::BetaPosterior(1.0, 7.0));
  EXPECT_EQ(buckets.size(), 3u);

  // A round that takes every arm returns each once, in ascending theta.
  core::Rng rng(7);
  std::vector<std::size_t> chosen;
  for (int round = 0; round < 100; ++round) {
    buckets.DrawRound(3, rng, chosen);
    std::vector<std::size_t> sorted = chosen;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{1, 2, 4}));
    EXPECT_LE(buckets.theta(0), buckets.theta(1));
    EXPECT_LE(buckets.theta(1), buckets.theta(2));
  }
}

}  // namespace
}  // namespace tmerge::merge::internal
