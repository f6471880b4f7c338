//===- cluster/Distance.h - Path and usage-change metrics (Sec. 4.3) ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-layer distance of Section 4.3:
///
///   pathDist(p1, p2)    — common-prefix + Levenshtein-similarity ratio of
///                         the first diverging labels, normalized by the
///                         longer path;
///   pathsDist(F1, F2)   — min-cost matching of two path sets (Hungarian),
///                         unmatched paths pair with the empty path at
///                         distance 1, normalized by max(|F1|, |F2|)
///                         (normalization is our documented choice — the
///                         paper leaves the sum unnormalized);
///   usageDist(C1, C2)   — average of pathsDist over the removed and the
///                         added feature sets.
///
/// Label units follow the paper: characters for string constants; method
/// signatures, integers, bytes, and type names are single units.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_DISTANCE_H
#define DIFFCODE_CLUSTER_DISTANCE_H

#include "usage/UsageChange.h"

#include <vector>

namespace diffcode {
namespace cluster {

/// Splits a label into Levenshtein units (see file comment).
std::vector<std::string> labelUnits(const usage::NodeLabel &Label);

/// Levenshtein similarity ratio between two labels in [0, 1].
double labelSimilarity(const usage::NodeLabel &A, const usage::NodeLabel &B);

/// Length of the longest common prefix of \p A and \p B.
std::size_t commonPrefixLen(const usage::FeaturePath &A,
                            const usage::FeaturePath &B);

/// pathDist in [0, 1]; 0 iff the paths are identical.
double pathDist(const usage::FeaturePath &A, const usage::FeaturePath &B);

/// pathsDist in [0, 1] via min-cost matching. Equal lists (both empty
/// included) give 0 and exactly one empty side gives 1 without a solver
/// call, so fault campaigns arming FaultSite::Hungarian reach the solver
/// only for pairs that need it.
double pathsDist(const std::vector<usage::FeaturePath> &F1,
                 const std::vector<usage::FeaturePath> &F2);

/// usageDist in [0, 1].
double usageDist(const usage::UsageChange &C1, const usage::UsageChange &C2);

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_DISTANCE_H
