#ifndef TMERGE_CORE_RNG_H_
#define TMERGE_CORE_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tmerge::core {

/// MT19937-64 (Matsumoto & Nishimura 2000), the engine the C++ standard
/// calls mt19937_64. [rand.predef] fixes its output for every seed, so this
/// class and the standard library's engine produce the same sequence on any
/// standard library; rng_test.cc checks that over many seeds and the
/// standard's 10,000th-output value.
///
/// It exists because libstdc++ selects the twist constant with
/// `(y & 1) ? a : 0`, which GCC compiles to a branch that mispredicts on
/// half the words. The twist here uses a mask instead, and tempering is
/// inline. Meets UniformRandomBitGenerator, so <random> distributions take
/// it directly.
class Mt19937Engine {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Seeds like the standard library's mt19937_64(seed).
  explicit Mt19937Engine(result_type seed);

  /// Next tempered 64-bit output.
  result_type operator()() {
    if (index_ >= kStateSize) Twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Regenerates all kStateSize state words at once, branch-free.
  void Twist();

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t index_;
};

/// SplitMix64's output step (Steele, Lea & Flood 2014): adds the golden-ratio
/// increment, then applies a bijective 64-bit mixer. The library's one
/// mixer: KeyedStream is built on it, and fault injection keys its
/// decisions with it.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A cheap keyed stream for many short, independent sequences of draws:
/// the SplitMix64 generator, whose whole state is one 64-bit word. It is
/// built in O(1), so a component can build one per item from that item's
/// key, as SyntheticReidModel does per crop. No draw goes through
/// <random>: Next and Uniform01 are fixed by this file alone, and
/// StandardNormal adds only the ziggurat's tables.
///
/// Keys should be mixed (for example by SplitMix64) before use: the
/// stream keyed k + 0x9E3779B97F4A7C15 is the stream keyed k, one draw
/// on. Not thread-safe.
class KeyedStream {
 public:
  explicit KeyedStream(std::uint64_t key) : state_(key) {}

  /// Next 64-bit output: SplitMix64 of the state, then the Weyl step that
  /// advances the state by the golden-ratio increment.
  std::uint64_t Next() {
    const std::uint64_t word = SplitMix64(state_);
    state_ += 0x9E3779B97F4A7C15ULL;
    return word;
  }

  /// Uniform double in [0, 1) from the top 53 bits of one word.
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Standard normal draw from the ziggurat Rng::Gamma uses.
  double StandardNormal();

 private:
  std::uint64_t state_;
};

/// Deterministic pseudo-random number generator used by every randomized
/// component in the library. All components take an explicit seed (directly
/// or via an Rng), which makes tests and benches reproducible bit-for-bit.
///
/// The engine is the in-repo Mt19937Engine, whose output the standard
/// fixes. Gamma, and so Beta, draws its standard normals from an in-repo
/// ziggurat. Uniform01, Uniform, UniformInt, Index, Normal, Bernoulli and
/// Poisson still use the standard library's <random> distributions, whose
/// algorithms are implementation-defined: their outputs are reproducible
/// on one standard library only. Not thread-safe; use one Rng per thread.
class Rng {
 public:
  /// Constructs a generator seeded with `seed`.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child generator. Useful for giving each
  /// subcomponent its own stream so adding draws in one place does not
  /// perturb another.
  Rng Fork();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n);

  /// Normal (Gaussian) sample with the given mean and standard deviation.
  ///
  /// Deliberately left as a fresh standard-library normal distribution per
  /// call, which discards the polar method's spare value. Its outputs are
  /// the simulated scenes and detections behind every pinned benchmark
  /// number and dataset fingerprint; caching the spare or switching it to
  /// the ziggurat would silently regenerate all of them.
  double Normal(double mean, double stddev);

  /// Bernoulli trial: true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Gamma(shape, 1) sample; shape > 0.
  double Gamma(double shape);

  /// Beta(alpha, beta) sample via two Gamma draws; alpha, beta > 0.
  double Beta(double alpha, double beta);

  /// Poisson sample with the given mean >= 0.
  int Poisson(double mean);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = Index(i);
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Underlying engine, for interoperating with <random> distributions.
  Mt19937Engine& engine() { return engine_; }

 private:
  Mt19937Engine engine_;
};

}  // namespace tmerge::core

#endif  // TMERGE_CORE_RNG_H_
