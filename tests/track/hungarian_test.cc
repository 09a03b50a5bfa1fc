#include "tmerge/track/hungarian.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/rng.h"

namespace tmerge::track {
namespace {

// Exhaustive minimum assignment cost by permuting the smaller side.
double BruteForceMin(const std::vector<std::vector<double>>& cost) {
  int rows = static_cast<int>(cost.size());
  int cols = rows > 0 ? static_cast<int>(cost[0].size()) : 0;
  double best = std::numeric_limits<double>::infinity();
  if (rows <= cols) {
    std::vector<int> perm(cols);
    std::iota(perm.begin(), perm.end(), 0);
    do {
      double total = 0.0;
      for (int r = 0; r < rows; ++r) total += cost[r][perm[r]];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    std::vector<int> perm(rows);
    std::iota(perm.begin(), perm.end(), 0);
    do {
      double total = 0.0;
      for (int c = 0; c < cols; ++c) total += cost[perm[c]][c];
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  return best;
}

TEST(HungarianTest, EmptyInputs) {
  EXPECT_TRUE(SolveAssignment({}).empty());
  std::vector<std::vector<double>> no_cols{{}, {}};
  std::vector<int> result = SolveAssignment(no_cols);
  EXPECT_EQ(result, (std::vector<int>{-1, -1}));
}

TEST(HungarianTest, SingleCell) {
  std::vector<int> result = SolveAssignment({{3.0}});
  EXPECT_EQ(result, (std::vector<int>{0}));
}

TEST(HungarianTest, ObviousDiagonal) {
  std::vector<std::vector<double>> cost{
      {1.0, 10.0, 10.0}, {10.0, 1.0, 10.0}, {10.0, 10.0, 1.0}};
  std::vector<int> result = SolveAssignment(cost);
  EXPECT_EQ(result, (std::vector<int>{0, 1, 2}));
}

TEST(HungarianTest, RequiresGlobalReasoning) {
  // Greedy picks (0,0)=1 then forces (1,1)=100 (total 101); optimal is
  // (0,1)+(1,0) = 2+2 = 4.
  std::vector<std::vector<double>> cost{{1.0, 2.0}, {2.0, 100.0}};
  std::vector<int> result = SolveAssignment(cost);
  EXPECT_EQ(AssignmentCost(cost, result), 4.0);
}

TEST(HungarianTest, WideMatrixLeavesColumnsUnused) {
  std::vector<std::vector<double>> cost{{5.0, 1.0, 7.0, 3.0}};
  std::vector<int> result = SolveAssignment(cost);
  EXPECT_EQ(result, (std::vector<int>{1}));
}

TEST(HungarianTest, TallMatrixLeavesRowsUnassigned) {
  std::vector<std::vector<double>> cost{{5.0}, {1.0}, {7.0}};
  std::vector<int> result = SolveAssignment(cost);
  int assigned = 0;
  for (int r : result) assigned += r >= 0 ? 1 : 0;
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(result[1], 0);  // The cheapest row wins the only column.
}

TEST(HungarianTest, ColumnsUsedAtMostOnce) {
  std::vector<std::vector<double>> cost{
      {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  std::vector<int> result = SolveAssignment(cost);
  std::vector<int> used;
  for (int c : result) {
    if (c >= 0) used.push_back(c);
  }
  std::sort(used.begin(), used.end());
  EXPECT_TRUE(std::adjacent_find(used.begin(), used.end()) == used.end());
}

TEST(HungarianTest, NegativeCostsSupported) {
  std::vector<std::vector<double>> cost{{-5.0, 0.0}, {0.0, -5.0}};
  std::vector<int> result = SolveAssignment(cost);
  EXPECT_EQ(AssignmentCost(cost, result), -10.0);
}

TEST(HungarianDeathTest, RaggedMatrixAborts) {
  std::vector<std::vector<double>> ragged{{1.0, 2.0}, {3.0}};
  EXPECT_DEATH(SolveAssignment(ragged), "TMERGE_CHECK");
}

// One workspace solving a run of problems that grow, shrink and change
// shape (empty and column-less ones too) returns what a fresh solve
// returns. Integer costs make ties common, where stale buffers would show.
TEST(HungarianTest, WorkspaceReuseMatchesFreshSolves) {
  core::Rng rng(77);
  AssignmentWorkspace workspace;
  for (int trial = 0; trial < 500; ++trial) {
    const int rows = static_cast<int>(rng.Index(9));
    const int cols = static_cast<int>(rng.Index(9));
    std::vector<std::vector<double>> cost(rows, std::vector<double>(cols));
    for (auto& row : cost) {
      for (double& cell : row) cell = static_cast<double>(rng.Index(4));
    }
    const std::vector<int> fresh = SolveAssignment(cost);
    const std::vector<int>& reused = SolveAssignment(cost, workspace);
    EXPECT_EQ(reused, fresh) << rows << "x" << cols << " trial " << trial;
    EXPECT_EQ(&reused, &workspace.assignment);
  }
}

// Property: matches brute force on random instances of all shapes.
struct ShapeParam {
  int rows;
  int cols;
};

class HungarianPropertyTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(HungarianPropertyTest, MatchesBruteForce) {
  auto [rows, cols] = GetParam();
  core::Rng rng(1000 + rows * 10 + cols);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::vector<double>> cost(rows, std::vector<double>(cols));
    for (auto& row : cost) {
      for (double& cell : row) cell = rng.Uniform(0.0, 10.0);
    }
    std::vector<int> result = SolveAssignment(cost);
    EXPECT_NEAR(AssignmentCost(cost, result), BruteForceMin(cost), 1e-9)
        << rows << "x" << cols << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HungarianPropertyTest,
    ::testing::Values(ShapeParam{2, 2}, ShapeParam{3, 3}, ShapeParam{4, 4},
                      ShapeParam{5, 5}, ShapeParam{2, 5}, ShapeParam{5, 2},
                      ShapeParam{3, 6}, ShapeParam{6, 3}, ShapeParam{1, 7},
                      ShapeParam{7, 1}));

}  // namespace
}  // namespace tmerge::track
