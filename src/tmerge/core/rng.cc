#include "tmerge/core/rng.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <random>

#include "tmerge/core/status.h"

namespace tmerge::core {

namespace {

// 128-layer ziggurat for the standard normal (Marsaglia & Tsang 2000).
// Every layer, including the base layer plus the tail beyond kZigR, has
// area kZigV under the unnormalized density exp(-x^2 / 2).
constexpr std::size_t kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct ZigguratTables {
  /// x[i] is the right edge of layer i: x[0] = V / f(R) is the base
  /// layer's width once the tail is folded into it, x[1] = R and
  /// x[128] = 0 closes the top layer.
  std::array<double, kZigLayers + 1> x;
  /// x[i + 1] / x[i]: the part of layer i that lies wholly under the curve.
  std::array<double, kZigLayers> ratio;
};

ZigguratTables BuildZigguratTables() {
  auto density = [](double x) { return std::exp(-0.5 * x * x); };
  ZigguratTables tables;
  tables.x[0] = kZigV / density(kZigR);
  tables.x[1] = kZigR;
  for (std::size_t i = 2; i < kZigLayers; ++i) {
    const double below = tables.x[i - 1];
    tables.x[i] = std::sqrt(-2.0 * std::log(kZigV / below + density(below)));
  }
  tables.x[kZigLayers] = 0.0;
  for (std::size_t i = 0; i < kZigLayers; ++i) {
    tables.ratio[i] = tables.x[i + 1] / tables.x[i];
  }
  return tables;
}

const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables = BuildZigguratTables();
  return tables;
}

/// Uniform double in (0, 1], safe to take the log of. `next_word` is any
/// callable that returns the source's next 64-bit word.
template <typename NextWord>
double OpenUniform(NextWord& next_word) {
  return static_cast<double>((next_word() >> 11) + 1) * 0x1.0p-53;
}

/// Standard normal draw from any 64-bit word source. One word drives the
/// common case: its low 7 bits pick the layer and its top 53 bits the
/// signed uniform. Keeping the two bit ranges disjoint avoids the
/// layer/uniform correlation that Doornik (2005) found in the original,
/// which took both from one 32-bit word.
template <typename NextWord>
double ZigguratNormal(NextWord& next_word, const ZigguratTables& zig) {
  for (;;) {
    const std::uint64_t bits = next_word();
    const std::size_t layer = bits & (kZigLayers - 1);
    // Bits 11..63 as a signed integer, made odd and scaled by 2^-53: a
    // uniform in (-1, 1), symmetric about zero and never zero.
    const double u =
        static_cast<double>((static_cast<std::int64_t>(bits) >> 10) | 1) *
        0x1.0p-53;
    const double x = u * zig.x[layer];
    if (std::fabs(u) < zig.ratio[layer]) return x;
    if (layer == 0) {
      // Beyond R: Marsaglia's (1964) exponential method for the tail.
      double tail;
      double y;
      do {
        tail = std::log(OpenUniform(next_word)) / kZigR;
        y = std::log(OpenUniform(next_word));
      } while (-2.0 * y < tail * tail);
      return u < 0.0 ? tail - kZigR : kZigR - tail;
    }
    // Wedge: a uniform height within the layer, relative to the density
    // at x, is accepted when it falls under the curve.
    const double x2 = x * x;
    const double outer = std::exp(-0.5 * (zig.x[layer] * zig.x[layer] - x2));
    const double inner =
        std::exp(-0.5 * (zig.x[layer + 1] * zig.x[layer + 1] - x2));
    const double height = static_cast<double>(next_word() >> 11) * 0x1.0p-53;
    if (outer + height * (inner - outer) < 1.0) return x;
  }
}

}  // namespace

double KeyedStream::StandardNormal() {
  auto next_word = [this] { return Next(); };
  return ZigguratNormal(next_word, Ziggurat());
}

Mt19937Engine::Mt19937Engine(result_type seed) : index_(kStateSize) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937Engine::Twist() {
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLowerMask = ~kUpperMask;
  // Word k takes its top 33 bits from state[k], its low 31 from the next
  // word, and xors in the matrix constant when that mix is odd. The mask
  // `0 - (y & 1)` is all ones for odd y and zero otherwise: no branch, and
  // the loops vectorize.
  auto mix = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  }
  state_[kStateSize - 1] =
      mix(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
}

Rng Rng::Fork() {
  // Draw a fresh seed; mixing with a large odd constant decorrelates child
  // streams that are forked in sequence.
  std::uint64_t seed = engine_() * 0x9E3779B97F4A7C15ULL + 0x3C6EF372FE94F82AULL;
  return Rng(seed);
}

double Rng::Uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  TMERGE_CHECK(lo <= hi);
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  TMERGE_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

std::size_t Rng::Index(std::size_t n) {
  TMERGE_CHECK(n > 0);
  return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::Gamma(double shape) {
  TMERGE_CHECK(shape > 0.0);
  // Marsaglia-Tsang squeeze method over ziggurat normals. Much faster than
  // constructing a standard-library gamma or normal distribution per draw,
  // which matters because TMerge draws a Beta sample (two Gammas) per live
  // pair per iteration.
  if (shape < 1.0) {
    // Boost to shape + 1 and scale back: G(a) = G(a+1) * U^(1/a).
    double u = Uniform01();
    while (u <= 0.0) u = Uniform01();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const ZigguratTables& zig = Ziggurat();
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = ZigguratNormal(engine_, zig);
    double t = 1.0 + c * x;
    if (t <= 0.0) continue;
    double v = t * t * t;
    double u = Uniform01();
    double x2 = x * x;
    // Squeeze acceptance (avoids the log most of the time).
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double alpha, double beta) {
  TMERGE_CHECK(alpha > 0.0 && beta > 0.0);
  double x = Gamma(alpha);
  double y = Gamma(beta);
  double sum = x + y;
  if (sum <= 0.0) return 0.5;  // Degenerate underflow; split the difference.
  return x / sum;
}

int Rng::Poisson(double mean) {
  TMERGE_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

}  // namespace tmerge::core
