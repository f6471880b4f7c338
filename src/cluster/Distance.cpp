//===- cluster/Distance.cpp ------------------------------------------------===//

#include "cluster/Distance.h"

#include "support/Hungarian.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace diffcode;
using namespace diffcode::cluster;
using namespace diffcode::usage;

std::vector<std::string> diffcode::cluster::labelUnits(const NodeLabel &Label) {
  std::vector<std::string> Out;
  switch (Label.K) {
  case NodeLabel::Kind::Root:
  case NodeLabel::Kind::Method:
    // Type names and method signatures are single units: swapping one
    // method for another costs exactly one modification.
    Out.push_back(Label.str());
    return Out;
  case NodeLabel::Kind::Arg:
    Out.push_back("arg" + std::to_string(Label.ArgIndex));
    if (Label.ValueIsString) {
      for (char C : Label.Text)
        Out.push_back(std::string(1, C));
    } else {
      Out.push_back(Label.Text);
    }
    return Out;
  }
  return Out;
}

double diffcode::cluster::labelSimilarity(const NodeLabel &A,
                                          const NodeLabel &B) {
  return levenshteinRatio(labelUnits(A), labelUnits(B));
}

std::size_t diffcode::cluster::commonPrefixLen(const FeaturePath &A,
                                               const FeaturePath &B) {
  std::size_t N = std::min(A.size(), B.size());
  std::size_t I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  return I;
}

double diffcode::cluster::pathDist(const FeaturePath &A,
                                   const FeaturePath &B) {
  if (A == B)
    return 0.0;
  std::size_t MaxLen = std::max(A.size(), B.size());
  if (MaxLen == 0)
    return 0.0;
  std::size_t J = commonPrefixLen(A, B);
  double Credit = static_cast<double>(J);
  // Partial credit for the first diverging pair of labels, when both
  // paths still have one.
  if (J < A.size() && J < B.size())
    Credit += labelSimilarity(A[J], B[J]);
  return 1.0 - Credit / static_cast<double>(MaxLen);
}

double diffcode::cluster::pathsDist(const std::vector<FeaturePath> &F1,
                                    const std::vector<FeaturePath> &F2) {
  // Bit-exact shortcuts around the assignment solver. Equal path lists
  // admit the all-zero diagonal matching, and a sum of exact zeros is
  // 0.0; one empty side makes every row cost exactly 1.0, and
  // (1.0 * N) / N is exactly 1.0. Both match what the solver returns.
  if (F1 == F2)
    return 0.0;
  if (F1.empty() || F2.empty())
    return 1.0;
  std::size_t N = std::max(F1.size(), F2.size());
  CostMatrix Costs(N, N);
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t C = 0; C < N; ++C) {
      if (R < F1.size() && C < F2.size())
        Costs.at(R, C) = pathDist(F1[R], F2[C]);
      else
        Costs.at(R, C) = 1.0; // unmatched path pairs with the empty path
    }
  Assignment Result = solveAssignment(Costs);
  return Result.TotalCost / static_cast<double>(N);
}

double diffcode::cluster::usageDist(const UsageChange &C1,
                                    const UsageChange &C2) {
  return (pathsDist(C1.removedPaths(), C2.removedPaths()) +
          pathsDist(C1.addedPaths(), C2.addedPaths())) /
         2.0;
}
