// Pins the bits of the bandit selectors on a clean run: one FNV-1a hash
// over every field of every window's SelectionResult, for every LCB and
// TMerge configuration testing/bandit_bits.h lists. The armed counterpart
// is FaultE2eTest.BanditBitsUnderFaultsMatchReference.

#include <gtest/gtest.h>

#include "testing/bandit_bits.h"

namespace tmerge::merge {
namespace {

TEST(BanditBitsTest, CleanRunsMatchReference) {
  testing::Fnv1a hash;
  WorkTally tally;
  testing::ForEachBanditSelection([&](const SelectionResult& result) {
    hash.Add(result);
    tally.AddWindow(result, 0);
  });
  EXPECT_EQ(tally.windows, 168);
  EXPECT_EQ(tally.failed_pulls, 0);
  EXPECT_EQ(hash.value(), 0xDA972D139B54B94FULL);
}

}  // namespace
}  // namespace tmerge::merge
