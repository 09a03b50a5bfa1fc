#include "tmerge/track/hungarian.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "tmerge/core/status.h"

namespace tmerge::track {

std::vector<int> SolveAssignment(const std::vector<std::vector<double>>& cost) {
  AssignmentWorkspace workspace;
  SolveAssignment(cost, workspace);
  return std::move(workspace.assignment);
}

const std::vector<int>& SolveAssignment(
    const std::vector<std::vector<double>>& cost,
    AssignmentWorkspace& workspace) {
  std::vector<int>& result = workspace.assignment;
  const int rows = static_cast<int>(cost.size());
  if (rows == 0) {
    result.clear();
    return result;
  }
  const int cols = static_cast<int>(cost[0].size());
  for (const auto& row : cost) {
    TMERGE_CHECK(static_cast<int>(row.size()) == cols);
  }
  if (cols == 0) {
    result.assign(rows, -1);
    return result;
  }

  // The shortest-augmenting-path formulation needs rows <= cols; transpose
  // if necessary and invert the result at the end.
  bool transposed = rows > cols;
  const int n = transposed ? cols : rows;  // assignments to make
  const int m = transposed ? rows : cols;  // choices
  auto at = [&](int r, int c) -> double {
    return transposed ? cost[c][r] : cost[r][c];
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // 1-indexed potentials/matching, standard formulation.
  std::vector<double>& u = workspace.u;
  std::vector<double>& v = workspace.v;
  u.assign(n + 1, 0.0);
  v.assign(m + 1, 0.0);
  std::vector<int>& match = workspace.match;  // match[c] = row of column c
  std::vector<int>& way = workspace.way;
  match.assign(m + 1, 0);
  way.assign(m + 1, 0);
  // Per-row search state, reset for every row.
  std::vector<double>& minv = workspace.minv;
  std::vector<char>& used = workspace.used;
  minv.resize(m + 1);
  used.resize(m + 1);

  for (int i = 1; i <= n; ++i) {
    match[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), false);
    do {
      used[j0] = true;
      int i0 = match[j0];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = at(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      TMERGE_CHECK(j1 != -1);
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[match[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match[j0] != 0);
    do {
      int j1 = way[j0];
      match[j0] = match[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  result.assign(rows, -1);
  for (int j = 1; j <= m; ++j) {
    if (match[j] == 0) continue;
    int r = match[j] - 1;
    int c = j - 1;
    if (transposed) {
      result[c] = r;
    } else {
      result[r] = c;
    }
  }
  return result;
}

double AssignmentCost(const std::vector<std::vector<double>>& cost,
                      const std::vector<int>& assignment) {
  TMERGE_CHECK(assignment.size() == cost.size());
  double total = 0.0;
  for (std::size_t r = 0; r < cost.size(); ++r) {
    if (assignment[r] >= 0) total += cost[r][assignment[r]];
  }
  return total;
}

}  // namespace tmerge::track
