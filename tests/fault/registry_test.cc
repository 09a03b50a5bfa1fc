// The failpoint registry's core contract: verdicts are a pure function of
// (seed, failpoint name, key) — edge probabilities are exact, schedules are
// independent per failpoint, and the same seed replays the same schedule.

#include "tmerge/fault/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "tmerge/fault/failpoint.h"

namespace tmerge::fault {
namespace {

TEST(KeyedUniformTest, DeterministicAndInRange) {
  for (std::uint64_t key = 0; key < 1000; ++key) {
    double u = internal::KeyedUniform(42, "reid.embed", key);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, internal::KeyedUniform(42, "reid.embed", key));
  }
}

TEST(KeyedUniformTest, SeedNameAndKeyAllChangeTheDraw) {
  double base = internal::KeyedUniform(42, "reid.embed", 7);
  EXPECT_NE(base, internal::KeyedUniform(43, "reid.embed", 7));
  EXPECT_NE(base, internal::KeyedUniform(42, "reid.latency", 7));
  EXPECT_NE(base, internal::KeyedUniform(42, "reid.embed", 8));
}

TEST(KeyedUniformTest, RoughlyUniform) {
  // Chebyshev-loose sanity band: ~50% of draws below 0.5.
  int below = 0;
  constexpr int kDraws = 10000;
  for (std::uint64_t key = 0; key < kDraws; ++key) {
    if (internal::KeyedUniform(9, "x", key) < 0.5) ++below;
  }
  EXPECT_GT(below, kDraws * 0.45);
  EXPECT_LT(below, kDraws * 0.55);
}

TEST(RegistryTest, UnarmedNeverFails) {
  Registry registry;
  EXPECT_FALSE(registry.AnyArmed());
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(registry.ShouldFail("reid.embed", key));
    EXPECT_EQ(registry.LatencySpike("reid.latency", key), 0.0);
  }
  EXPECT_EQ(registry.total_fires(), 0);
}

TEST(RegistryTest, ProbabilityZeroNeverFires) {
  Registry registry;
  registry.Arm("reid.embed", {0.0, 0.0});
  EXPECT_TRUE(registry.AnyArmed());
  for (std::uint64_t key = 0; key < 10000; ++key) {
    EXPECT_FALSE(registry.ShouldFail("reid.embed", key));
  }
  EXPECT_EQ(registry.fires("reid.embed"), 0);
}

TEST(RegistryTest, ProbabilityOneAlwaysFires) {
  Registry registry;
  registry.Arm("reid.embed", {1.0, 0.0});
  for (std::uint64_t key = 0; key < 10000; ++key) {
    EXPECT_TRUE(registry.ShouldFail("reid.embed", key));
  }
  EXPECT_EQ(registry.fires("reid.embed"), 10000);
  EXPECT_EQ(registry.total_fires(), 10000);
}

TEST(RegistryTest, ProbabilityAndLatencyAreClamped) {
  Registry registry;
  registry.Arm("a", {2.0, -1.0});
  registry.Arm("b", {-0.5, 0.0});
  EXPECT_TRUE(registry.ShouldFail("a", 1));   // clamped to 1.0
  EXPECT_FALSE(registry.ShouldFail("b", 1));  // clamped to 0.0
  EXPECT_EQ(registry.LatencySpike("a", 1), 0.0);  // latency clamped to 0
}

TEST(RegistryTest, VerdictIsKeyedNotSequenced) {
  // Re-evaluating the same key gives the same verdict no matter how many
  // other calls happened in between — the thread-count-invariance property.
  Registry registry;
  registry.SetSeed(11);
  registry.Arm("reid.embed", {0.5, 0.0});
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    first.push_back(registry.ShouldFail("reid.embed", key));
  }
  // Interleave unrelated draws, then replay in reverse order.
  for (std::uint64_t key = 0; key < 100; ++key) {
    registry.ShouldFail("other.point", key);
  }
  for (std::uint64_t key = 2000; key-- > 0;) {
    EXPECT_EQ(registry.ShouldFail("reid.embed", key), first[key]) << key;
  }
}

TEST(RegistryTest, SeedChangesTheSchedule) {
  Registry registry;
  registry.Arm("reid.embed", {0.5, 0.0});
  registry.SetSeed(1);
  std::vector<bool> with_seed_1;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    with_seed_1.push_back(registry.ShouldFail("reid.embed", key));
  }
  registry.SetSeed(2);
  int differing = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (registry.ShouldFail("reid.embed", key) != with_seed_1[key]) {
      ++differing;
    }
  }
  // Independent fair coins differ on ~half the keys.
  EXPECT_GT(differing, 300);
  // And restoring the seed replays the original schedule exactly.
  registry.SetSeed(1);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(registry.ShouldFail("reid.embed", key), with_seed_1[key]);
  }
}

TEST(RegistryTest, FailpointsHaveIndependentSchedules) {
  Registry registry;
  registry.SetSeed(5);
  registry.Arm("a", {0.5, 0.0});
  registry.Arm("b", {0.5, 0.0});
  int differing = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    if (registry.ShouldFail("a", key) != registry.ShouldFail("b", key)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 300);
}

TEST(RegistryTest, DisarmStopsOnlyThatPoint) {
  Registry registry;
  registry.Arm("a", {1.0, 0.0});
  registry.Arm("b", {1.0, 0.0});
  registry.Disarm("a");
  EXPECT_TRUE(registry.AnyArmed());
  EXPECT_FALSE(registry.ShouldFail("a", 0));
  EXPECT_TRUE(registry.ShouldFail("b", 0));
  registry.Disarm("b");
  EXPECT_FALSE(registry.AnyArmed());
  // Disarming something never armed is a no-op.
  registry.Disarm("c");
  EXPECT_FALSE(registry.AnyArmed());
}

TEST(RegistryTest, ResetClearsPointsAndCountsButKeepsSeed) {
  Registry registry;
  registry.SetSeed(77);
  registry.Arm("a", {1.0, 0.0});
  registry.ShouldFail("a", 0);
  EXPECT_EQ(registry.total_fires(), 1);
  registry.Reset();
  EXPECT_FALSE(registry.AnyArmed());
  EXPECT_EQ(registry.total_fires(), 0);
  EXPECT_EQ(registry.fires("a"), 0);
  EXPECT_EQ(registry.seed(), 77u);
}

TEST(RegistryTest, LatencySpikeReportsArmedSeconds) {
  Registry registry;
  registry.Arm("reid.latency", {1.0, 0.25});
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(registry.LatencySpike("reid.latency", key), 0.25);
  }
  registry.Arm("reid.latency", {0.0, 0.25});
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(registry.LatencySpike("reid.latency", key), 0.0);
  }
}

TEST(RegistryTest, ApplySpecArmsEveryEntry) {
  Registry registry;
  core::Status status =
      registry.ApplySpec("reid.embed=1;reid.latency=1.0@0.05;io.mot.corrupt_row=0");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(registry.ShouldFail("reid.embed", 0));
  EXPECT_EQ(registry.LatencySpike("reid.latency", 0), 0.05);
  EXPECT_FALSE(registry.ShouldFail("io.mot.corrupt_row", 0));
}

TEST(RegistryTest, ApplySpecRejectsMalformedEntriesAtomically) {
  const char* bad_specs[] = {
      "reid.embed",            // no '='
      "reid.embed=",           // empty probability
      "reid.embed=abc",        // non-numeric
      "reid.embed=0.5x",       // trailing junk
      "reid.embed=1.5",        // probability out of range
      "reid.embed=-0.1",       // negative probability
      "reid.embed=0.5@",       // empty latency
      "reid.embed=0.5@-1",     // negative latency
      "=0.5",                  // empty name
      "reid.embed=0.5;;bad",   // malformed later entry
      "good=1;broken",         // valid first entry must NOT be armed
  };
  for (const char* spec : bad_specs) {
    Registry registry;
    core::Status status = registry.ApplySpec(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_FALSE(registry.AnyArmed()) << spec;
  }
}

TEST(RegistryTest, ConcurrentShouldFailAgreesAcrossThreads) {
  // The determinism claim under real concurrency: 8 threads evaluating the
  // same keys must compute identical verdicts while another thread churns
  // an unrelated failpoint. TSan runs this in CI.
  Registry registry;
  registry.SetSeed(3);
  registry.Arm("reid.embed", {0.5, 0.0});

  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 4000;
  std::vector<std::vector<bool>> verdicts(kThreads);
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    std::uint64_t key = 0;
    while (!stop.load()) {
      registry.Arm("other.point", {0.5, 0.0});
      registry.ShouldFail("other.point", key++);
      registry.Disarm("other.point");
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      verdicts[t].reserve(kKeys);
      for (std::uint64_t key = 0; key < kKeys; ++key) {
        verdicts[t].push_back(registry.ShouldFail("reid.embed", key));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true);
  churn.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(verdicts[t], verdicts[0]) << "thread " << t;
  }
}

TEST(FailpointMacroTest, ConsultsTheGlobalRegistry) {
  GlobalRegistry().Reset();
  EXPECT_FALSE(TMERGE_FAILPOINT("reid.embed", 0));
  GlobalRegistry().Arm("reid.embed", {1.0, 0.0});
  EXPECT_TRUE(TMERGE_FAILPOINT("reid.embed", 0));
  GlobalRegistry().Arm("reid.latency", {1.0, 0.125});
  EXPECT_EQ(TMERGE_FAILPOINT_LATENCY("reid.latency", 0), 0.125);
  GlobalRegistry().Reset();
  EXPECT_FALSE(TMERGE_FAILPOINT("reid.embed", 0));
}

}  // namespace
}  // namespace tmerge::fault
