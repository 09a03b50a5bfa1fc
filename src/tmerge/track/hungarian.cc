#include "tmerge/track/hungarian.h"

#include <algorithm>
#include <limits>

#include "tmerge/core/status.h"

namespace tmerge::track {

std::vector<int> SolveAssignment(const std::vector<std::vector<double>>& cost) {
  const int rows = static_cast<int>(cost.size());
  if (rows == 0) return {};
  const int cols = static_cast<int>(cost[0].size());
  for (const auto& row : cost) {
    TMERGE_CHECK(static_cast<int>(row.size()) == cols);
  }
  if (cols == 0) return std::vector<int>(rows, -1);

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
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> match(m + 1, 0);  // match[c] = row assigned to column c
  std::vector<int> way(m + 1, 0);
  // Per-row search state, reset for every row.
  std::vector<double> minv(m + 1);
  std::vector<char> used(m + 1);

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

  std::vector<int> result(rows, -1);
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
