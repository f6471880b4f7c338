//===- support/Hungarian.h - Min-cost bipartite assignment ---------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimum-cost assignment (Hungarian / Kuhn–Munkres with potentials,
/// O(n^3)). Section 3.5 of the paper pairs old-version usage DAGs with
/// new-version DAGs by solving a maximum matching that minimizes the sum of
/// pair distances; Section 4.3 pairs feature paths the same way. Both call
/// into this solver.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_HUNGARIAN_H
#define DIFFCODE_SUPPORT_HUNGARIAN_H

#include <cstddef>
#include <vector>

namespace diffcode {

/// A dense cost matrix for the assignment problem. Rows and columns may
/// differ; the solver pads the smaller side with zero-cost dummy entries.
class CostMatrix {
public:
  CostMatrix(std::size_t Rows, std::size_t Cols)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, 0.0) {}

  double &at(std::size_t R, std::size_t C) {
    return Data[R * NumCols + C];
  }
  double at(std::size_t R, std::size_t C) const {
    return Data[R * NumCols + C];
  }
  std::size_t rows() const { return NumRows; }
  std::size_t cols() const { return NumCols; }

private:
  std::size_t NumRows;
  std::size_t NumCols;
  std::vector<double> Data;
};

/// Result of an assignment: RowToCol[R] is the column matched to row R, or
/// SIZE_MAX when R was matched to a padding column (only possible when
/// rows > cols). TotalCost excludes padded pairs.
struct Assignment {
  std::vector<std::size_t> RowToCol;
  double TotalCost = 0.0;

  static constexpr std::size_t Unmatched = static_cast<std::size_t>(-1);
};

/// Solves the min-cost assignment for \p Costs. Every real row/column is
/// matched; when the matrix is rectangular the surplus side pairs with
/// zero-cost padding.
Assignment solveAssignment(const CostMatrix &Costs);

} // namespace diffcode

#endif // DIFFCODE_SUPPORT_HUNGARIAN_H
