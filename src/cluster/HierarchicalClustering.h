//===- cluster/HierarchicalClustering.h - Complete-linkage clustering ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Agglomerative hierarchical clustering with complete linkage
/// (Section 4.3): start with one leaf per usage change, repeatedly merge
/// the two clusters with minimal linkage
///
///   clusterDist(X, Y) = max_{c1 in X, c2 in Y} usageDist(c1, c2),
///
/// recording every merge in a dendrogram. The dendrogram can be cut at a
/// threshold to obtain flat clusters and rendered as ASCII art for manual
/// rule elicitation (Figure 8).
///
/// Agglomeration is the plain greedy over the distance matrix, updated
/// in place by Lance-Williams max updates: each round merges the live
/// pair with the least (distance, min rep, max rep) key, where a
/// cluster's representative is its minimum leaf id. That canonical
/// tie-breaking order (DESIGN.md "Clustering engine") makes the
/// dendrogram unique. O(n^3) after the matrix: C(n+1, 3) comparisons,
/// 70,300 for the paper's largest class (75 survivors, Figure 6).
/// tests/NaiveClustering.h recomputes every linkage from the raw matrix
/// instead and serves as the differential oracle.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H
#define DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H

#include "usage/UsageChange.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace diffcode {
namespace cluster {

/// The threshold at which the flat-cluster displays (CLI, examples,
/// Figure 8) cut a dendrogram — a manual-inspection aid; the dendrogram
/// itself has no knobs.
inline constexpr double DefaultCut = 0.4;

/// Binary merge tree over clustered items.
class Dendrogram {
public:
  struct Node {
    int Left = -1;  ///< Child node index, or -1 for a leaf.
    int Right = -1;
    std::size_t Item = static_cast<std::size_t>(-1); ///< Leaf payload.
    double Height = 0.0; ///< Linkage distance at the merge (0 for leaves).

    bool isLeaf() const { return Left < 0; }
  };

  /// Number of clustered items (leaves).
  std::size_t leafCount() const { return NumLeaves; }
  const std::vector<Node> &nodes() const { return Nodes; }
  int root() const { return Root; }
  bool empty() const { return Nodes.empty(); }

  /// Flat clusters: cut every merge with Height > \p Threshold. Each
  /// cluster is a list of item indices; clusters ordered by size
  /// (descending) for readability.
  std::vector<std::vector<std::size_t>> cut(double Threshold) const;

  /// ASCII rendering; \p LeafLabel maps an item index to display text
  /// (may be multi-line — continuation lines are indented).
  std::string render(
      const std::function<std::string(std::size_t)> &LeafLabel) const;

private:
  friend Dendrogram agglomerateDistanceMatrix(std::size_t,
                                              std::vector<double>);

  std::vector<Node> Nodes;
  int Root = -1;
  std::size_t NumLeaves = 0;

  void collectLeaves(int Index, std::vector<std::size_t> &Out) const;
};

/// Row-major NumItems x NumItems pairwise distance matrix (diagonal 0,
/// symmetric); Dist is evaluated once per unordered pair, I < J.
std::vector<double> pairwiseDistanceMatrix(
    std::size_t NumItems,
    const std::function<double(std::size_t, std::size_t)> &Dist);

/// Complete-linkage agglomeration of a precomputed distance matrix
/// (row-major NumItems^2, consumed). Leaves are nodes 0..NumItems-1, then
/// one merge node per merge in merge order, the root last; a merge's
/// Left is the subtree of the smaller representative.
Dendrogram agglomerateDistanceMatrix(std::size_t NumItems,
                                     std::vector<double> Matrix);

/// The usageDist matrix over \p Changes: pairwiseDistanceMatrix with
/// cluster::usageDist evaluated once per pair.
std::vector<double>
usageDistanceMatrix(const std::vector<usage::UsageChange> &Changes);

/// Clusters usage changes by usageDist:
/// agglomerateDistanceMatrix over usageDistanceMatrix(Changes).
Dendrogram clusterUsageChanges(const std::vector<usage::UsageChange> &Changes);

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_HIERARCHICALCLUSTERING_H
