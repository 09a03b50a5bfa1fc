#ifndef TMERGE_TRACK_HUNGARIAN_H_
#define TMERGE_TRACK_HUNGARIAN_H_

#include <vector>

namespace tmerge::track {

/// Solves the rectangular linear assignment problem, minimizing total cost.
///
/// `cost[r][c]` is the cost of assigning row r to column c; all rows must
/// have equal length. Returns a vector of length cost.size() where entry r
/// is the assigned column, or -1 when rows outnumber columns and row r is
/// left unassigned. Every column is used at most once. Implementation:
/// Jonker-Volgenant style shortest augmenting path (the O(n^3) Kuhn-Munkres
/// family), exact.
std::vector<int> SolveAssignment(const std::vector<std::vector<double>>& cost);

/// SolveAssignment's buffers, owned by a caller that solves one problem per
/// frame: they grow to the largest problem solved so far, after which a
/// solve allocates nothing.
struct AssignmentWorkspace {
  std::vector<double> u;
  std::vector<double> v;
  std::vector<double> minv;
  std::vector<int> match;
  std::vector<int> way;
  std::vector<char> used;
  /// The last solution, in SolveAssignment's format.
  std::vector<int> assignment;
};

/// SolveAssignment into `workspace`, with the same result bit for bit.
/// Returns workspace.assignment, which the next solve overwrites.
const std::vector<int>& SolveAssignment(
    const std::vector<std::vector<double>>& cost,
    AssignmentWorkspace& workspace);

/// Total cost of an assignment returned by SolveAssignment (unassigned rows
/// contribute nothing).
double AssignmentCost(const std::vector<std::vector<double>>& cost,
                      const std::vector<int>& assignment);

}  // namespace tmerge::track

#endif  // TMERGE_TRACK_HUNGARIAN_H_
