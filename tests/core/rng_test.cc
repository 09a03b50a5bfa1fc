#include "tmerge/core/rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tmerge::core {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_DOUBLE_EQ(rng.Uniform(2.0, 2.0), 2.0);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, IndexCoversRange) {
  Rng rng(11);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[rng.Index(5)];
  for (int count : hits) EXPECT_GT(count, 700);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, BetaMeanMatchesTheory) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Beta(2.0, 6.0);
  EXPECT_NEAR(sum / kN, 2.0 / 8.0, 0.01);
}

TEST(RngTest, BetaStaysInUnitInterval) {
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    double b = rng.Beta(0.5, 0.5);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(31);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Poisson(2.5);
  EXPECT_NEAR(sum / kN, 2.5, 0.1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Mt19937EngineTest, StandardTenThousandthOutput) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Mt19937Engine engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937EngineTest, MatchesStdMt19937_64) {
  // 1000 draws cross three twists of the 312-word state.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t seed = i * 0x9E3779B97F4A7C15ULL + i;
    Mt19937Engine ours(seed);
    std::mt19937_64 reference(seed);
    for (int draw = 0; draw < 1000; ++draw) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << " draw " << draw;
    }
  }
}

#ifdef __GLIBCXX__
/// Replays fixed words as a UniformRandomBitGenerator, so the standard
/// library's generate_canonical can be fed chosen edge words.
class WordReplay {
 public:
  using result_type = std::uint64_t;
  explicit WordReplay(std::uint64_t word) : word_(word) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word_; }

 private:
  std::uint64_t word_;
};
#endif

TEST(CanonicalDoubleTest, EdgeWordsMatchGenerateCanonical) {
#ifdef __GLIBCXX__
  // Zero, the rounding boundaries of the top halves and the words that
  // round up to 1 and take the clamp.
  for (std::uint64_t word :
       {0ULL, 1ULL, 0xFFFFFFFFULL, 0x100000000ULL, 0x7FFFFFFFFFFFFC00ULL,
        0x7FFFFFFFFFFFFFFFULL, 0x8000000000000000ULL, 0x8000000000000401ULL,
        0xFFFFFFFFFFFFF800ULL, 0xFFFFFFFFFFFFFBFFULL, 0xFFFFFFFFFFFFFC00ULL,
        0xFFFFFFFFFFFFFFFFULL}) {
    WordReplay replay(word);
    EXPECT_EQ(CanonicalDouble(word),
              (std::generate_canonical<double, 53>(replay)))
        << std::hex << word;
  }
#else
  GTEST_SKIP() << "CanonicalDouble reproduces libstdc++'s bits only";
#endif
}

TEST(CanonicalDoubleTest, UniformAndBernoulliMatchStdOnMt19937_64) {
#ifdef __GLIBCXX__
  // Rng's Uniform01, Uniform and Bernoulli against the standard library's
  // distributions over the same engine output, interleaved so every call
  // consumes the same words.
  constexpr std::array<std::array<double, 2>, 7> kRanges = {
      {{0.0, 1.0}, {-3.0, 5.0}, {0.0, 1e-300}, {-1e6, 1e6}, {2.5, 2.75},
       {-0.5, 0.0}, {0.0, 1920.0}}};
  constexpr std::array<double, 5> kRates = {0.3, 1e-9, 0.5, 0.999999, 0.07};
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t seed = i * 0x9E3779B97F4A7C15ULL + 17;
    Rng ours(seed);
    std::mt19937_64 reference(seed);
    for (int draw = 0; draw < 2000; ++draw) {
      ASSERT_EQ(ours.Uniform01(),
                std::uniform_real_distribution<double>(0.0, 1.0)(reference))
          << "seed " << seed << " draw " << draw;
      const auto& range = kRanges[draw % kRanges.size()];
      ASSERT_EQ(ours.Uniform(range[0], range[1]),
                std::uniform_real_distribution<double>(range[0],
                                                       range[1])(reference))
          << "seed " << seed << " draw " << draw;
      const double rate = kRates[draw % kRates.size()];
      ASSERT_EQ(ours.Bernoulli(rate),
                std::bernoulli_distribution(rate)(reference))
          << "seed " << seed << " draw " << draw;
    }
  }
#else
  GTEST_SKIP() << "Rng reproduces libstdc++'s distributions only";
#endif
}

// First outputs of every Rng helper for one seed. The simulated scenes,
// detections and ReID features are built from these streams, so a change
// here regenerates every dataset and pinned benchmark number; these
// values were recorded before the engine moved in-repo.
constexpr std::uint64_t kGoldenSeed = 20230403;

TEST(RngGoldenTest, Uniform01) {
  Rng rng(kGoldenSeed);
  for (double expected : {0x1.69d2779bfb019p-1, 0x1.5dc0942386abcp-1,
                          0x1.cbdc89878a25ap-1, 0x1.0781d50a475fep-3,
                          0x1.9648763aac74fp-2, 0x1.9e40fb908842ep-2}) {
    EXPECT_EQ(rng.Uniform01(), expected);
  }
}

TEST(RngGoldenTest, Uniform) {
  Rng rng(kGoldenSeed);
  for (double expected : {0x1.53a4ef37f6032p+1, 0x1.3b8128470d578p+1,
                          0x1.0bdc89878a25ap+2, -0x1.f87e2af5b8a02p+0,
                          0x1.648763aac74fp-3, 0x1.e40fb908842ep-3}) {
    EXPECT_EQ(rng.Uniform(-3.0, 5.0), expected);
  }
}

TEST(RngGoldenTest, UniformInt) {
  Rng small(kGoldenSeed);
  for (std::int64_t expected : {7, 6, 8, 1, 3, 4, 6, 7}) {
    EXPECT_EQ(small.UniformInt(0, 9), expected);
  }
  Rng wide(kGoldenSeed);
  const std::int64_t bound = std::int64_t{1} << 40;
  for (std::int64_t expected :
       {454502620155LL, 402662892423LL, 875578361739LL, -816572972399LL}) {
    EXPECT_EQ(wide.UniformInt(-bound, bound), expected);
  }
}

TEST(RngGoldenTest, Index) {
  Rng rng(kGoldenSeed);
  for (std::size_t expected : {706, 683, 898, 128, 396, 404, 645, 754}) {
    EXPECT_EQ(rng.Index(1000), expected);
  }
}

TEST(RngGoldenTest, Normal) {
  Rng rng(kGoldenSeed);
  for (double expected : {0x1.c59e10727f01bp+1, -0x1.8f021d0d6f6aap+0,
                          0x1.023c825977542p+2, 0x1.7b9ae478ea8ccp-2,
                          0x1.0e613ecb993bcp+2, 0x1.49f8637fa70b6p+1}) {
    EXPECT_EQ(rng.Normal(1.5, 2.0), expected);
  }
}

TEST(RngGoldenTest, Bernoulli) {
  Rng rng(kGoldenSeed);
  std::string draws;
  for (int i = 0; i < 16; ++i) draws += rng.Bernoulli(0.3) ? '1' : '0';
  EXPECT_EQ(draws, "0001000001000110");
}

TEST(RngGoldenTest, Poisson) {
  // Small and large means take different branches of the distribution.
  Rng small(kGoldenSeed);
  for (int expected : {3, 3, 1, 3, 2, 4, 2, 1}) {
    EXPECT_EQ(small.Poisson(2.5), expected);
  }
  Rng large(kGoldenSeed);
  for (int expected : {53, 46, 45, 50, 48, 55, 42, 35}) {
    EXPECT_EQ(large.Poisson(40.0), expected);
  }
}

// Gamma and Beta carry every TMerge Thompson draw, and their ziggurat is
// shared with other streams; these pins catch any drift in either. Shape
// 0.5 takes the boost path, 1 and 2.5 the squeeze with frequent log
// tests, and 40 the squeeze with almost none. The Beta cases put every
// shape on both sides.
TEST(RngGoldenTest, Gamma) {
  struct Case {
    double shape;
    std::array<double, 4> expected;
  };
  for (const Case& c :
       {Case{0.5, {0x1.7d990455f1401p-1, 0x1.f783a626417e9p-4,
                   0x1.b633fabb38e8fp-2, 0x1.280fdeca62ddbp-1}},
        Case{1.0, {0x1.64cbce641b1e9p-3, 0x1.cac1e7547308p-2,
                   0x1.3e61aaa5c0da1p+1, 0x1.77982b4f6e047p-2}},
        Case{2.5, {0x1.1bec5b6727daap+0, 0x1.bfd47184d3ae7p+0,
                   0x1.34a145b063799p+2, 0x1.941f1f998c177p+0}},
        Case{40.0, {0x1.12de90925bb03p+5, 0x1.2e435c0977cfap+5,
                    0x1.864f11f302649p+5, 0x1.279041b1a06c6p+5}}}) {
    Rng rng(kGoldenSeed);
    for (double expected : c.expected) {
      EXPECT_EQ(rng.Gamma(c.shape), expected) << "shape " << c.shape;
    }
  }
}

TEST(RngGoldenTest, Beta) {
  struct Case {
    double alpha;
    double beta;
    std::array<double, 4> expected;
  };
  for (const Case& c :
       {Case{0.5, 1.0, {0x1.397b1727baf02p-3, 0x1.2ff14e1a1b9fbp-5,
                        0x1.39a0b29f0b981p-1, 0x1.1d259c1804293p-5}},
        Case{1.0, 2.5, {0x1.72f9ecefe30a6p-4, 0x1.39378802d693bp-1,
                        0x1.a3862a60e38c1p-7, 0x1.d4a64f98d1f94p-4}},
        Case{2.5, 40.0, {0x1.d33838c057ef9p-6, 0x1.d8e873117f3bcp-4,
                         0x1.f50dbd0848e04p-7, 0x1.363bf07a44751p-5}},
        Case{40.0, 0.5, {0x1.eeaaba71fc20bp-1, 0x1.fe63bc63cf2acp-1,
                         0x1.f6add16a99521p-1, 0x1.ff426a9abeffbp-1}}}) {
    Rng rng(kGoldenSeed);
    for (double expected : c.expected) {
      EXPECT_EQ(rng.Beta(c.alpha, c.beta), expected)
          << "Beta(" << c.alpha << ", " << c.beta << ")";
    }
  }
}

// One-sample Kolmogorov-Smirnov tests of Gamma and Beta against exact
// CDFs, at significance 0.001 with fixed seeds.
constexpr int kKsSamples = 200000;

double KsCritical() { return 1.949 / std::sqrt(static_cast<double>(kKsSamples)); }

template <typename Cdf>
double KsDistance(std::vector<double> samples, Cdf cdf) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double distance = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    distance = std::max({distance, f - static_cast<double>(i) / n,
                         static_cast<double>(i + 1) / n - f});
  }
  return distance;
}

/// Regularized incomplete beta I_x(a, b) for integer shapes:
/// P(Binomial(a + b - 1, x) >= a), summed over the shorter tail with each
/// binomial term taken in log space so none underflows early.
class BetaCdf {
 public:
  BetaCdf(int a, int b) : a_(a), n_(a + b - 1), log_choose_(n_ + 1, 0.0) {
    // log C(n, j) = log C(n, j - 1) + log((n - j + 1) / j).
    for (int j = 1; j <= n_; ++j) {
      log_choose_[j] = log_choose_[j - 1] +
                       std::log(static_cast<double>(n_ - j + 1) / j);
    }
  }

  double operator()(double x) const {
    if (x <= 0.0) return 0.0;
    if (x >= 1.0) return 1.0;
    const double log_p = std::log(x);
    const double log_q = std::log1p(-x);
    auto sum = [&](int lo, int hi) {
      double total = 0.0;
      for (int j = lo; j <= hi; ++j) {
        total += std::exp(log_choose_[j] + j * log_p + (n_ - j) * log_q);
      }
      return total;
    };
    return n_ - a_ + 1 <= a_ ? sum(a_, n_) : 1.0 - sum(0, a_ - 1);
  }

 private:
  int a_;
  int n_;
  std::vector<double> log_choose_;
};

/// Gamma(k, 1) CDF for integer k: P(Poisson(x) >= k).
double GammaCdf(int k, double x) {
  if (x <= 0.0) return 0.0;
  double term = std::exp(-x);
  double below = 0.0;
  for (int j = 0; j < k; ++j) {
    below += term;
    term *= x / (j + 1);
  }
  return 1.0 - below;
}

struct BetaShape {
  int a;
  int b;
};

void PrintTo(const BetaShape& shape, std::ostream* os) {
  *os << "Beta(" << shape.a << ", " << shape.b << ")";
}

class RngBetaKsTest : public ::testing::TestWithParam<BetaShape> {};

TEST_P(RngBetaKsTest, MatchesExactCdf) {
  const BetaShape shape = GetParam();
  Rng rng(1000 + 31 * shape.a + shape.b);
  std::vector<double> samples(kKsSamples);
  for (double& x : samples) x = rng.Beta(shape.a, shape.b);
  const double distance =
      KsDistance(std::move(samples), BetaCdf(shape.a, shape.b));
  EXPECT_LT(distance, KsCritical());
}

// The shapes span the Thompson loop's range: flat priors, BetaInit's
// (1, 2), lopsided posteriors and long-sampled arms.
INSTANTIATE_TEST_SUITE_P(
    Shapes, RngBetaKsTest,
    ::testing::Values(BetaShape{1, 1}, BetaShape{1, 2}, BetaShape{2, 1},
                      BetaShape{3, 7}, BetaShape{10, 3}, BetaShape{1, 40},
                      BetaShape{40, 1}, BetaShape{72, 72}, BetaShape{5, 139},
                      BetaShape{144, 2}),
    [](const ::testing::TestParamInfo<BetaShape>& shape_info) {
      // Appended piecewise: `"a" + std::to_string(...)` trips GCC 12's
      // false -Wrestrict at -O3.
      std::string name = "a";
      name += std::to_string(shape_info.param.a);
      name += "_b";
      name += std::to_string(shape_info.param.b);
      return name;
    });

class RngGammaKsTest : public ::testing::TestWithParam<int> {};

TEST_P(RngGammaKsTest, MatchesExactCdf) {
  const int shape = GetParam();
  Rng rng(2000 + shape);
  std::vector<double> samples(kKsSamples);
  for (double& x : samples) x = rng.Gamma(shape);
  const double distance = KsDistance(
      std::move(samples), [&](double x) { return GammaCdf(shape, x); });
  EXPECT_LT(distance, KsCritical());
}

INSTANTIATE_TEST_SUITE_P(Shapes, RngGammaKsTest,
                         ::testing::Values(1, 2, 5, 20, 144));

TEST(RngGammaBoostKsTest, HalfShapeMatchesExactCdf) {
  // Shape < 1 takes the boost path; Gamma(1/2) has CDF erf(sqrt(x)).
  Rng rng(2500);
  std::vector<double> samples(kKsSamples);
  for (double& x : samples) x = rng.Gamma(0.5);
  const double distance = KsDistance(std::move(samples), [](double x) {
    return x <= 0.0 ? 0.0 : std::erf(std::sqrt(x));
  });
  EXPECT_LT(distance, KsCritical());
}

double StandardNormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

TEST(KeyedStreamTest, NextIsTheSplitMix64Sequence) {
  KeyedStream stream(7);
  std::uint64_t state = 7;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(stream.Next(), SplitMix64(state));
    state += 0x9E3779B97F4A7C15ULL;
  }
  // The reference output of SplitMix64 seeded with 0 (Vigna's splitmix64.c).
  EXPECT_EQ(KeyedStream(0).Next(), 0xE220A8397B1DCDAFULL);
}

TEST(KeyedStreamTest, StandardNormalMatchesPhi) {
  KeyedStream stream(SplitMix64(3000));
  std::vector<double> samples(kKsSamples);
  for (double& x : samples) x = stream.StandardNormal();
  EXPECT_LT(KsDistance(std::move(samples), StandardNormalCdf), KsCritical());
}

TEST(KeyedStreamTest, AdjacentKeysFirstDrawsMatchPhi) {
  // The first 16 draws of keys 1, 2, 3, ...: one crop's embedding each,
  // keyed the way MOT-format input numbers its crops, here without the
  // extra mixing round SyntheticReidModel adds on top.
  constexpr int kDrawsPerKey = 16;
  std::vector<double> samples;
  samples.reserve(kKsSamples);
  for (std::uint64_t key = 1; samples.size() < kKsSamples; ++key) {
    KeyedStream stream(key);
    for (int i = 0; i < kDrawsPerKey; ++i) {
      samples.push_back(stream.StandardNormal());
    }
  }
  EXPECT_LT(KsDistance(std::move(samples), StandardNormalCdf), KsCritical());
}

TEST(KeyedStreamTest, Uniform01MatchesUniform) {
  KeyedStream stream(SplitMix64(3001));
  std::vector<double> samples(kKsSamples);
  for (double& u : samples) {
    u = stream.Uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_LT(KsDistance(std::move(samples), [](double u) { return u; }),
            KsCritical());
}

TEST(KeyedStreamTest, AdjacentKeysUncorrelated) {
  // Pearson correlation of the first normals of keys k and k + 1. Under
  // independence it is about N(0, 1/n); 3.29 / sqrt(n) is the two-sided
  // bound at significance 0.001.
  constexpr int kPairs = 100000;
  double previous = KeyedStream(1).StandardNormal();
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_yy = 0.0, sum_xy = 0.0;
  for (std::uint64_t key = 2; key < kPairs + 2; ++key) {
    const double next = KeyedStream(key).StandardNormal();
    sum_x += previous;
    sum_y += next;
    sum_xx += previous * previous;
    sum_yy += next * next;
    sum_xy += previous * next;
    previous = next;
  }
  const double n = kPairs;
  const double covariance = sum_xy / n - (sum_x / n) * (sum_y / n);
  const double correlation =
      covariance / std::sqrt((sum_xx / n - (sum_x / n) * (sum_x / n)) *
                             (sum_yy / n - (sum_y / n) * (sum_y / n)));
  EXPECT_LT(std::fabs(correlation), 3.29 / std::sqrt(n));
}

TEST(RngDeathTest, InvalidArgumentsAbort) {
  Rng rng(1);
  EXPECT_DEATH(rng.Uniform(3.0, 1.0), "TMERGE_CHECK");
  EXPECT_DEATH(rng.UniformInt(5, 4), "TMERGE_CHECK");
  EXPECT_DEATH(rng.Index(0), "TMERGE_CHECK");
  EXPECT_DEATH(rng.Gamma(0.0), "TMERGE_CHECK");
  EXPECT_DEATH(rng.Beta(0.0, 1.0), "TMERGE_CHECK");
  EXPECT_DEATH(rng.Poisson(-1.0), "TMERGE_CHECK");
}

}  // namespace
}  // namespace tmerge::core
