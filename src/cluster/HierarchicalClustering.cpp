//===- cluster/HierarchicalClustering.cpp ----------------------------------===//

#include "cluster/HierarchicalClustering.h"

#include "cluster/Distance.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace diffcode;
using namespace diffcode::cluster;

void Dendrogram::collectLeaves(int Index, std::vector<std::size_t> &Out) const {
  const Node &N = Nodes[Index];
  if (N.isLeaf()) {
    Out.push_back(N.Item);
    return;
  }
  collectLeaves(N.Left, Out);
  collectLeaves(N.Right, Out);
}

std::vector<std::vector<std::size_t>> Dendrogram::cut(double Threshold) const {
  std::vector<std::vector<std::size_t>> Clusters;
  if (Nodes.empty())
    return Clusters;

  // Walk down from the root; a subtree whose merge height is within the
  // threshold becomes one flat cluster.
  std::vector<int> Work = {Root};
  while (!Work.empty()) {
    int Index = Work.back();
    Work.pop_back();
    const Node &N = Nodes[Index];
    if (N.isLeaf() || N.Height <= Threshold) {
      Clusters.emplace_back();
      collectLeaves(Index, Clusters.back());
      continue;
    }
    Work.push_back(N.Left);
    Work.push_back(N.Right);
  }
  std::stable_sort(Clusters.begin(), Clusters.end(),
                   [](const auto &A, const auto &B) {
                     return A.size() > B.size();
                   });
  return Clusters;
}

std::string Dendrogram::render(
    const std::function<std::string(std::size_t)> &LeafLabel) const {
  std::string Out;
  if (Nodes.empty())
    return Out;

  std::function<void(int, std::string, bool)> Walk =
      [&](int Index, std::string Prefix, bool IsLast) {
        const Node &N = Nodes[Index];
        std::string Branch = Prefix + (IsLast ? "`-- " : "|-- ");
        std::string ChildPrefix = Prefix + (IsLast ? "    " : "|   ");
        if (N.isLeaf()) {
          std::string Label = LeafLabel(N.Item);
          // Indent continuation lines of multi-line labels.
          bool First = true;
          std::size_t Start = 0;
          while (Start <= Label.size()) {
            std::size_t End = Label.find('\n', Start);
            std::string Line =
                Label.substr(Start, End == std::string::npos
                                        ? std::string::npos
                                        : End - Start);
            if (!Line.empty() || First)
              Out += (First ? Branch : ChildPrefix) + Line + "\n";
            First = false;
            if (End == std::string::npos)
              break;
            Start = End + 1;
          }
          return;
        }
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%.3f", N.Height);
        Out += Branch + "[" + Buf + "]\n";
        Walk(N.Left, ChildPrefix, false);
        Walk(N.Right, ChildPrefix, true);
      };
  Walk(Root, "", true);
  return Out;
}

Dendrogram diffcode::cluster::agglomerateDistanceMatrix(
    std::size_t NumItems, std::vector<double> Matrix) {
  Dendrogram Tree;
  Tree.NumLeaves = NumItems;
  if (NumItems == 0)
    return Tree;
  assert(Matrix.size() == NumItems * NumItems && "matrix shape mismatch");

  // A live cluster is named by its representative, its minimum leaf id;
  // NodeOf[R] is its subtree, or -1 once R has been merged away.
  const std::size_t N = NumItems;
  std::vector<int> NodeOf(N);
  for (std::size_t I = 0; I < N; ++I) {
    Dendrogram::Node Leaf;
    Leaf.Item = I;
    Tree.Nodes.push_back(Leaf);
    NodeOf[I] = static_cast<int>(I);
  }

  double *D = Matrix.data();
  for (std::size_t MergeIndex = 0; MergeIndex + 1 < N; ++MergeIndex) {
    // Fault-injection point: merge ordinal + item count form a stable key
    // (the merge sequence is canonical, so this fires identically on
    // every thread count).
    support::throwIfFault(support::FaultSite::Clustering,
                          (static_cast<std::uint64_t>(N) << 32) | MergeIndex);
    // The first strict minimum over live pairs A < B in row-major order
    // is the least (distance, A, B) key: the canonical tie-breaking
    // order (DESIGN.md "Clustering engine").
    std::size_t A = N, B = N;
    double Best = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      if (NodeOf[I] < 0)
        continue;
      const double *Row = D + I * N;
      for (std::size_t J = I + 1; J < N; ++J)
        if (NodeOf[J] >= 0 && (B == N || Row[J] < Best)) {
          A = I;
          B = J;
          Best = Row[J];
        }
    }
    Dendrogram::Node Merge;
    Merge.Left = NodeOf[A];
    Merge.Right = NodeOf[B];
    Merge.Height = Best;
    NodeOf[A] = static_cast<int>(Tree.Nodes.size());
    NodeOf[B] = -1;
    Tree.Nodes.push_back(Merge);
    // Lance-Williams update for complete linkage: the merged cluster
    // keeps A's row, and the max only selects among existing doubles.
    for (std::size_t K = 0; K < N; ++K)
      if (NodeOf[K] >= 0 && K != A)
        D[A * N + K] = D[K * N + A] = std::max(D[A * N + K], D[B * N + K]);
  }
  Tree.Root = NodeOf[0];
  return Tree;
}

std::vector<double> diffcode::cluster::pairwiseDistanceMatrix(
    std::size_t NumItems,
    const std::function<double(std::size_t, std::size_t)> &Dist) {
  std::vector<double> D(NumItems * NumItems, 0.0);
  for (std::size_t I = 0; I < NumItems; ++I)
    for (std::size_t J = I + 1; J < NumItems; ++J)
      D[I * NumItems + J] = D[J * NumItems + I] = Dist(I, J);
  return D;
}

std::vector<double> diffcode::cluster::usageDistanceMatrix(
    const std::vector<usage::UsageChange> &Changes) {
  return pairwiseDistanceMatrix(
      Changes.size(), [&Changes](std::size_t I, std::size_t J) {
        return usageDist(Changes[I], Changes[J]);
      });
}

Dendrogram diffcode::cluster::clusterUsageChanges(
    const std::vector<usage::UsageChange> &Changes) {
  return agglomerateDistanceMatrix(Changes.size(),
                                   usageDistanceMatrix(Changes));
}
