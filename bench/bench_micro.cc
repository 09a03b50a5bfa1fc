// Microbenchmarks (google-benchmark) of the hot operations underneath the
// selectors: Beta sampling, Hungarian assignment, Kalman filtering, one
// SORT run over a KITTI-like camera,
// synthetic ReID embedding + distance, one TMerge Thompson round — plus
// the slab/kernel hot path this repo optimizes: distance kernels (scalar
// reference vs unrolled), one BL track-pair sweep (seed-style
// unordered_map lookup + per-pair scalar sqrt vs slab gather + column
// gather + the fused SumNormalizedDistances sweep), the sweep itself on
// both kernel paths, and cache lookups (unordered_map vs the
// open-addressed DetectionIndex).
//
// `bench_micro --json-only` skips the google-benchmark suite and instead
// times the comparison pairs with a fixed deterministic harness, emitting
// one BENCH_JSON line per comparison. The CI perf-smoke job validates
// those lines with json.tool and compares them against the committed
// bench/BENCH_tier1.json baseline (tools/bench_regress.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "tmerge/core/beta.h"
#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"
#include "tmerge/detect/detection_simulator.h"
#include "tmerge/merge/pair_store.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/distance_kernels.h"
#include "tmerge/reid/feature_cache.h"
#include "tmerge/reid/feature_store.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/sim/video_generator.h"
#include "tmerge/track/hungarian.h"
#include "tmerge/track/kalman_filter.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge {
namespace {

void BM_BetaSample(benchmark::State& state) {
  core::Rng rng(1);
  core::BetaPosterior beta(3.0, 7.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(beta.Sample(rng));
  }
}
BENCHMARK(BM_BetaSample);

void BM_ThompsonRound(benchmark::State& state) {
  // One TMerge round as TMergeSelector runs it: PosteriorBuckets::DrawRound
  // picks the `take` arms with the smallest thetas, one draw per shared
  // posterior. The arms are the late-window mix of thompson_round_test.cc
  // (m arms per Beta(S, F)): 273 arms, 12 posteriors.
  struct Group {
    double s;
    double f;
    int m;
  };
  constexpr Group kLateWindow[] = {
      {1, 2, 150}, {1, 1, 40},  {2, 1, 8},   {2, 60, 20},
      {3, 200, 6}, {2, 2, 30},  {5, 9, 12},  {1, 400, 1},
      {2, 500, 1}, {4, 900, 1}, {3, 150, 1}, {8, 4, 3}};
  std::size_t arms = 0;
  for (const Group& group : kLateWindow) arms += group.m;
  merge::internal::PosteriorBuckets buckets(arms);
  std::size_t arm = 0;
  for (const Group& group : kLateWindow) {
    for (int i = 0; i < group.m; ++i) {
      buckets.Insert(arm++, core::BetaPosterior(group.s, group.f));
    }
  }
  const auto take = static_cast<std::size_t>(state.range(0));
  core::Rng rng(2);
  std::vector<std::size_t> chosen;
  for (auto _ : state) {
    buckets.DrawRound(take, rng, chosen);
    benchmark::DoNotOptimize(chosen.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arms));
}
// take = 1 is TMerge's round, 10 a TMerge-B round.
BENCHMARK(BM_ThompsonRound)->Arg(1)->Arg(10);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Rng rng(3);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& cell : row) cell = rng.Uniform(0.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(track::SolveAssignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(128);

void BM_KalmanPredictUpdate(benchmark::State& state) {
  track::KalmanBoxFilter filter({100, 100, 50, 120});
  core::BoundingBox observed{102, 100, 50, 120};
  for (auto _ : state) {
    filter.Predict();
    filter.Update(observed);
  }
}
BENCHMARK(BM_KalmanPredictUpdate);

void BM_SortTrackerRun(benchmark::State& state) {
  // One KITTI-like camera as perfbench's `stream` workload feeds it: the
  // profile's defaults at 3000 frames, default detector, fixed seeds.
  sim::VideoConfig config = sim::ProfileConfig(sim::DatasetProfile::kKittiLike);
  config.num_frames = 3000;
  const sim::SyntheticVideo video = sim::GenerateVideo(config, 8);
  const detect::DetectionSequence detections =
      detect::SimulateDetections(video, detect::DetectorConfig(), 9);
  track::SortTracker tracker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Run(detections));
  }
  state.SetItemsProcessed(state.iterations() * detections.num_frames);
}
BENCHMARK(BM_SortTrackerRun);

void BM_ReidEmbed(benchmark::State& state) {
  sim::VideoConfig config;
  config.num_frames = 60;
  config.initial_objects = 4;
  config.min_track_length = 30;
  config.max_track_length = 50;
  sim::SyntheticVideo video = sim::GenerateVideo(config, 4);
  reid::SyntheticReidModel model(video, {}, 5);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    reid::CropRef crop{seed, 0, 1.0, false, seed};
    benchmark::DoNotOptimize(model.Embed(crop));
    ++seed;
  }
}
BENCHMARK(BM_ReidEmbed);

void BM_FeatureDistance(benchmark::State& state) {
  core::Rng rng(6);
  reid::FeatureVector a(16), b(16);
  for (auto& v : a) v = rng.Normal(0, 1);
  for (auto& v : b) v = rng.Normal(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reid::FeatureDistance(a, b));
  }
}
BENCHMARK(BM_FeatureDistance);

void BM_BoxPairSampler(benchmark::State& state) {
  // Args: rows, cols, draws, and whether the sampler is told its draw
  // count, as PS tells it (ArmTable's arms are not).
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  const std::int64_t draws = state.range(2);
  const bool counted = state.range(3) != 0;
  core::Rng rng(7);
  for (auto _ : state) {
    merge::BoxPairSampler sampler =
        counted ? merge::BoxPairSampler(rows, cols, draws)
                : merge::BoxPairSampler(rows, cols);
    for (std::int64_t i = 0; i < draws; ++i) {
      benchmark::DoNotOptimize(sampler.Sample(rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * draws);
}
// The last two: PS's draw at eta = 0.01 on a 180 x 180 grid, without and
// with the count (which takes the grid bitmap).
BENCHMARK(BM_BoxPairSampler)
    ->Args({100, 100, 1000, 0})
    ->Args({180, 180, 324, 0})
    ->Args({180, 180, 324, 1});

// --- Slab/kernel hot path ----------------------------------------------

/// Feature dimension used throughout (SyntheticReidModel ships dim 16).
constexpr std::size_t kDim = 16;
/// Stand-in normalization scale (the model's exact value is irrelevant to
/// the timing; sqrt + divide + clamp is the per-pair work being measured).
constexpr double kScale = 4.0;

/// Restores the kernel dispatch mode on scope exit.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(bool scalar)
      : saved_(reid::kernels::UseScalarKernels()) {
    reid::kernels::SetUseScalarKernels(scalar);
  }
  ~ScopedKernelMode() { reid::kernels::SetUseScalarKernels(saved_); }

 private:
  bool saved_;
};

#if defined(__GNUC__) || defined(__clang__)
#define TMERGE_BENCH_NOINLINE __attribute__((noinline))
#else
#define TMERGE_BENCH_NOINLINE
#endif

/// Replica of the seed-era FeatureDistance: runtime dimension check,
/// scalar loop bounded by a.size(), sqrt. Kept out of line because the
/// original lived in feature.cc, so seed callers paid a real function
/// call per box pair.
TMERGE_BENCH_NOINLINE double SeedFeatureDistance(
    const reid::FeatureVector& a, const reid::FeatureVector& b) {
  TMERGE_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// Boxes per track in the one-vs-many fixture: a 16x16 grid of box pairs
/// per track pair, a typical window overlap.
constexpr std::size_t kBoxes = 16;

/// Seed-era model shape: normalization_scale() was virtual on ReidModel,
/// and NormalizedDistance re-read it through the vtable for every box
/// pair. noinline keeps the per-pair call in the measurement even if the
/// optimizer devirtualizes the fixture's concrete type.
struct SeedScaleModel {
  virtual ~SeedScaleModel() = default;
  virtual double normalization_scale() const = 0;
  double NormalizedDistance(const reid::FeatureVector& a,
                            const reid::FeatureVector& b) const {
    double d = SeedFeatureDistance(a, b) / normalization_scale();
    return std::clamp(d, 0.0, 1.0);
  }
};

struct FixedScaleModel final : SeedScaleModel {
  TMERGE_BENCH_NOINLINE double normalization_scale() const override {
    return kScale;
  }
};

/// One full track-pair evaluation, built both ways, each side replicating
/// its era's inner loop statement for statement (seed side from the
/// pre-slab baseline.cc). The seed way: features in unordered_map node
/// storage, gathered per track pair into freshly constructed
/// FeatureVector-pointer vectors (one hash lookup + hit-counter bump per
/// box, as GetOrEmbed did), then a 16x16 grid of
/// model.NormalizedDistance calls — each an out-of-line scalar
/// FeatureDistance with per-call sqrt plus a virtual
/// normalization_scale() read. The current way: features in the slab
/// arena, gathered as raw rows through DetectionIndex into scratch
/// reused across pairs, the B side transposed by GatherColumns, then one
/// fused SumNormalizedDistances sweep per A row — BL's inner loop. Both
/// sides pay their own lookup and allocation traffic; accumulation order
/// is identical, so the two sums must match bit for bit.
struct PairFixture {
  PairFixture() {
    core::Rng rng(41);
    for (std::size_t i = 0; i < 2 * kBoxes; ++i) {
      reid::FeatureVector f(kDim);
      for (double& v : f) v = rng.Normal(0.0, 1.0);
      // Non-sequential ids, as real detection ids are.
      std::uint64_t id = i * 2654435761u + 97;
      ids.push_back(id);
      map.emplace(id, f);
      index.Insert(id, store.Append(f));
    }
    slab_a.reserve(kBoxes);
    slab_b.reserve(kBoxes);
    columns.resize(kBoxes * kDim);
  }

  std::unordered_map<std::uint64_t, reid::FeatureVector> map;
  std::vector<std::uint64_t> ids;
  reid::FeatureStore store;
  reid::DetectionIndex index;
  FixedScaleModel seed_model;
  std::uint64_t cache_hits = 0;
  std::vector<const double*> slab_a, slab_b;
  std::vector<double> columns;
};

double SeedPair(PairFixture& f) {
  // The seed declared these inside the per-track-pair loop, so every
  // track pair paid the two gather allocations; reserve matches the
  // seed's embed_track.
  std::vector<const reid::FeatureVector*> seed_a, seed_b;
  seed_a.reserve(kBoxes);
  seed_b.reserve(kBoxes);
  for (std::size_t i = 0; i < kBoxes; ++i) {
    // Seed GetOrEmbed hit path: map find + RecordCacheHit.
    auto it_a = f.map.find(f.ids[i]);
    ++f.cache_hits;
    seed_a.push_back(&it_a->second);
    auto it_b = f.map.find(f.ids[kBoxes + i]);
    ++f.cache_hits;
    seed_b.push_back(&it_b->second);
  }
  double sum = 0.0;
  for (const auto* fa : seed_a) {
    for (const auto* fb : seed_b) {
      sum += f.seed_model.NormalizedDistance(*fa, *fb);
    }
  }
  return sum;
}

double SlabPair(PairFixture& f) {
  f.slab_a.clear();
  f.slab_b.clear();
  for (std::size_t i = 0; i < kBoxes; ++i) {
    // Current GetOrEmbed hit path: index find + RecordCacheHit.
    f.slab_a.push_back(f.store.Data(f.index.Find(f.ids[i])));
    ++f.cache_hits;
    f.slab_b.push_back(f.store.Data(f.index.Find(f.ids[kBoxes + i])));
    ++f.cache_hits;
  }
  reid::kernels::GatherColumns(f.slab_b.data(), kBoxes, kDim,
                               f.columns.data());
  double sum = 0.0;
  for (const double* fa : f.slab_a) {
    sum = reid::kernels::SumNormalizedDistances(fa, f.columns.data(), kBoxes,
                                                kDim, kScale, sum);
  }
  return sum;
}

/// detection_id -> feature lookup built both ways: the seed-era
/// unordered_map and the open-addressed DetectionIndex.
struct LookupFixture {
  explicit LookupFixture(std::size_t entries) {
    core::Rng rng(43);
    reid::FeatureVector f(kDim, 0.5);
    for (std::size_t i = 0; i < entries; ++i) {
      std::uint64_t id = i * 2654435761u + 97;
      ids.push_back(id);
      map.emplace(id, f);
      index.Insert(id, store.Append(f));
    }
    // Probe in an order decorrelated from insertion.
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<std::size_t>(
                            rng.UniformInt(0, static_cast<int>(i)))]);
    }
  }

  std::unordered_map<std::uint64_t, reid::FeatureVector> map;
  reid::FeatureStore store;
  reid::DetectionIndex index;
  std::vector<std::uint64_t> ids;
};

std::size_t MapLookups(const LookupFixture& f) {
  std::size_t acc = 0;
  for (std::uint64_t id : f.ids) acc += f.map.find(id)->second.size();
  return acc;
}

std::size_t IndexLookups(const LookupFixture& f) {
  std::size_t acc = 0;
  for (std::uint64_t id : f.ids) acc += f.index.Find(id).index;
  return acc;
}

void BM_SquaredDistanceScalar(benchmark::State& state) {
  core::Rng rng(6);
  reid::FeatureVector a(kDim), b(kDim);
  for (auto& v : a) v = rng.Normal(0, 1);
  for (auto& v : b) v = rng.Normal(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reid::kernels::ScalarSquaredDistance(a.data(), b.data(), kDim));
  }
}
BENCHMARK(BM_SquaredDistanceScalar);

void BM_SquaredDistanceUnrolled(benchmark::State& state) {
  ScopedKernelMode mode(/*scalar=*/false);
  core::Rng rng(6);
  reid::FeatureVector a(kDim), b(kDim);
  for (auto& v : a) v = rng.Normal(0, 1);
  for (auto& v : b) v = rng.Normal(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reid::kernels::SquaredDistance(a.data(), b.data(), kDim));
  }
}
BENCHMARK(BM_SquaredDistanceUnrolled);

void BM_PairGridMapScalar(benchmark::State& state) {
  PairFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SeedPair(f));
  }
  state.SetItemsProcessed(state.iterations() * kBoxes * kBoxes);
}
BENCHMARK(BM_PairGridMapScalar);

void BM_PairGridSlabVectorized(benchmark::State& state) {
  ScopedKernelMode mode(/*scalar=*/false);
  PairFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlabPair(f));
  }
  state.SetItemsProcessed(state.iterations() * kBoxes * kBoxes);
}
BENCHMARK(BM_PairGridSlabVectorized);

void BM_CacheLookupMap(benchmark::State& state) {
  LookupFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MapLookups(f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CacheLookupMap)->Arg(1024)->Arg(16384);

void BM_CacheLookupSlabIndex(benchmark::State& state) {
  LookupFixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndexLookups(f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CacheLookupSlabIndex)->Arg(1024)->Arg(16384);

// --- Deterministic BENCH_JSON harness ----------------------------------

/// Nanoseconds per op over a fixed iteration count (steady_clock is fine
/// here: bench/ is outside the determinism lint's steady_clock ban, and
/// wall-clock is the measurand).
template <typename Op>
double NsPerOp(Op&& op, std::int64_t iters) {
  for (int i = 0; i < 100; ++i) op();  // Warmup.
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) op();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iters);
}

/// Peak resident set (VmHWM) in MiB from /proc/self/status, or -1 when
/// unavailable. Advisory per-section telemetry: the committed baseline
/// carries no RSS fields, so host differences can never gate CI.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

/// Resets the VmHWM watermark so the next PeakRssMb reading is the
/// current section's own peak, not the whole binary's. Best-effort: on
/// kernels without the "5" clear_refs command the old watermark simply
/// carries over, and the field stays advisory either way.
void ResetPeakRss() {
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return;
  std::fputs("5", clear);
  std::fclose(clear);
}

/// BL's fused sweep over 4096 gathered columns, timed on the scalar
/// reference and on the fast path, with the bit-identity contract checked
/// on the shipping binary: the two sums must be equal byte for byte.
/// `avx2` records which fast path this host ran (1 = the AVX2 sweep,
/// 0 = the scalar loop again, on a CPU without AVX2).
void RunKernelSweepSection() {
  ResetPeakRss();
  constexpr std::size_t kRows = 4096;
  const double kInf = std::numeric_limits<double>::infinity();
  core::Rng rng(62);
  reid::FeatureStore store;
  {
    std::vector<double> f(kDim);
    for (std::size_t r = 0; r < kRows + 1; ++r) {
      for (double& v : f) v = rng.Normal(0.0, 1.0);
      store.Append(f.data(), kDim);
    }
  }
  std::vector<const double*> rows(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    rows[r] = store.Data(reid::FeatureRef{static_cast<std::uint32_t>(r)});
  }
  const double* query =
      store.Data(reid::FeatureRef{static_cast<std::uint32_t>(kRows)});
  std::vector<double> columns(kRows * kDim);
  reid::kernels::GatherColumns(rows.data(), kRows, kDim, columns.data());

  auto sweep = [&] {
    return reid::kernels::SumNormalizedDistances(query, columns.data(), kRows,
                                                 kDim, kScale, 0.0);
  };
  auto time_sweep = [&](bool scalar, double& sum) {
    ScopedKernelMode mode(scalar);
    sum = sweep();
    double ns = kInf;
    for (int r = 0; r < 5; ++r) {
      ns = std::min(ns,
                    NsPerOp([&] { benchmark::DoNotOptimize(sweep()); }, 200));
    }
    return ns;
  };
  double reference = 0.0, fast = 0.0;
  const double scalar_ns = time_sweep(/*scalar=*/true, reference);
  const double fast_ns = time_sweep(/*scalar=*/false, fast);
  TMERGE_CHECK(std::memcmp(&fast, &reference, sizeof(double)) == 0);
  bench::EmitBenchJson(
      "micro_kernel_levels",
      {{"rows", static_cast<double>(kRows)},
       {"dim", static_cast<double>(kDim)},
       {"scalar_ns", scalar_ns},
       {"fast_ns", fast_ns},
       {"avx2", reid::kernels::Avx2SweepAvailable() ? 1.0 : 0.0},
       {"peak_rss_mb", PeakRssMb()}});
}

/// The CI perf-smoke entry point: times the seed vs slab comparison
/// pairs and emits one BENCH_JSON line per comparison. Sides alternate
/// in short rounds and each keeps its minimum: alternation cancels the
/// slow drift of a busy or thermally throttling host (measuring one side
/// entirely before the other would hand whichever goes first a
/// systematic advantage), and the minimum is the standard noise-robust
/// estimator for a deterministic op.
void RunJsonBenches() {
  ScopedKernelMode mode(/*scalar=*/false);
  constexpr int kRounds = 7;
  const double kInf = std::numeric_limits<double>::infinity();

  ResetPeakRss();
  PairFixture f;
  // Same elements in the same accumulation order: the two paths must
  // agree to the last bit, or the comparison is timing different math.
  TMERGE_CHECK(SeedPair(f) == SlabPair(f));
  double seed_ns = kInf, slab_ns = kInf;
  for (int r = 0; r < kRounds; ++r) {
    seed_ns = std::min(
        seed_ns, NsPerOp([&] { benchmark::DoNotOptimize(SeedPair(f)); }, 3000));
    slab_ns = std::min(
        slab_ns, NsPerOp([&] { benchmark::DoNotOptimize(SlabPair(f)); }, 3000));
  }
  bench::EmitBenchJson(
      "micro_one_vs_many",
      {{"boxes", static_cast<double>(kBoxes)},
       {"dim", static_cast<double>(kDim)},
       {"box_pairs", static_cast<double>(kBoxes * kBoxes)},
       {"map_scalar_ns", seed_ns},
       {"slab_vectorized_ns", slab_ns},
       {"speedup", seed_ns / slab_ns},
       {"peak_rss_mb", PeakRssMb()}});

  ResetPeakRss();
  constexpr std::size_t kEntries = 4096;
  LookupFixture l(kEntries);
  TMERGE_CHECK(IndexLookups(l) > 0);
  double map_lookup_ns = kInf, index_lookup_ns = kInf;
  for (int r = 0; r < kRounds; ++r) {
    map_lookup_ns = std::min(
        map_lookup_ns,
        NsPerOp([&] { benchmark::DoNotOptimize(MapLookups(l)); }, 300));
    index_lookup_ns = std::min(
        index_lookup_ns,
        NsPerOp([&] { benchmark::DoNotOptimize(IndexLookups(l)); }, 300));
  }
  bench::EmitBenchJson("micro_cache_lookup",
                       {{"entries", static_cast<double>(kEntries)},
                        {"map_ns", map_lookup_ns},
                        {"index_ns", index_lookup_ns},
                        {"speedup", map_lookup_ns / index_lookup_ns},
                        {"peak_rss_mb", PeakRssMb()}});

  RunKernelSweepSection();
}

}  // namespace
}  // namespace tmerge

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0) {
      tmerge::RunJsonBenches();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tmerge::RunJsonBenches();
  return 0;
}
