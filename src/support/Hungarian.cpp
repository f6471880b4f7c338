//===- support/Hungarian.cpp ----------------------------------------------===//

#include "support/Hungarian.h"

#include "support/FaultInjection.h"

#include <bit>
#include <cassert>
#include <limits>

using namespace diffcode;

// Kuhn–Munkres with row/column potentials (the classic O(n^3) "e-maxx"
// formulation, 1-indexed internally). Works on a square matrix (row-major
// flat, stride N); callers with rectangular inputs are padded with
// zero-cost entries below. Returns P, where P[J] is the 1-based row
// assigned to column J.
static std::vector<std::size_t> solveSquare(const std::vector<double> &A,
                                            std::size_t N) {
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> U(N + 1, 0.0), V(N + 1, 0.0), MinV;
  std::vector<std::size_t> P(N + 1, 0), Way(N + 1, 0);
  std::vector<char> Used;

  for (std::size_t I = 1; I <= N; ++I) {
    P[0] = I;
    std::size_t J0 = 0;
    MinV.assign(N + 1, Inf);
    Used.assign(N + 1, 0);
    do {
      Used[J0] = 1;
      std::size_t I0 = P[J0], J1 = 0;
      double Delta = Inf;
      for (std::size_t J = 1; J <= N; ++J) {
        if (Used[J])
          continue;
        double Cur = A[(I0 - 1) * N + (J - 1)] - U[I0] - V[J];
        if (Cur < MinV[J]) {
          MinV[J] = Cur;
          Way[J] = J0;
        }
        if (MinV[J] < Delta) {
          Delta = MinV[J];
          J1 = J;
        }
      }
      for (std::size_t J = 0; J <= N; ++J) {
        if (Used[J]) {
          U[P[J]] += Delta;
          V[J] -= Delta;
        } else {
          MinV[J] -= Delta;
        }
      }
      J0 = J1;
    } while (P[J0] != 0);
    do {
      std::size_t J1 = Way[J0];
      P[J0] = P[J1];
      J0 = J1;
    } while (J0 != 0);
  }
  return P;
}

Assignment diffcode::solveAssignment(const CostMatrix &Costs) {
  const std::size_t N = std::max(Costs.rows(), Costs.cols());
  Assignment Result;
  if (N == 0)
    return Result;

  // Fault-injection point, keyed on the matrix content (shape + corner
  // entries) so the decision is a pure function of the input and thus
  // identical no matter which thread solves this pair.
  {
    std::uint64_t Key = (static_cast<std::uint64_t>(Costs.rows()) << 32) ^
                        Costs.cols();
    if (Costs.rows() > 0 && Costs.cols() > 0)
      Key ^= support::faultMix(
                 std::bit_cast<std::uint64_t>(Costs.at(0, 0) + 1.0)) ^
             std::bit_cast<std::uint64_t>(
                 Costs.at(Costs.rows() - 1, Costs.cols() - 1) + 2.0);
    support::throwIfFault(support::FaultSite::Hungarian, Key);
  }

  std::vector<double> Square(N * N, 0.0);
  for (std::size_t R = 0; R < Costs.rows(); ++R)
    for (std::size_t C = 0; C < Costs.cols(); ++C)
      Square[R * N + C] = Costs.at(R, C);

  std::vector<std::size_t> P = solveSquare(Square, N);

  // P[J] = row assigned to column J; read the matching column-by-column.
  Result.RowToCol.assign(Costs.rows(), Assignment::Unmatched);
  for (std::size_t J = 1; J <= N; ++J) {
    std::size_t R = P[J] - 1, C = J - 1;
    if (R < Costs.rows() && C < Costs.cols())
      Result.RowToCol[R] = C;
  }
  for (std::size_t R = 0; R < Costs.rows(); ++R) {
    std::size_t C = Result.RowToCol[R];
    if (C != Assignment::Unmatched)
      Result.TotalCost += Costs.at(R, C);
  }
  return Result;
}
