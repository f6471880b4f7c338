//===- cluster/HierarchicalClustering.cpp ----------------------------------===//

#include "cluster/HierarchicalClustering.h"

#include "cluster/Distance.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

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

namespace {

/// Canonical strict total order on active cluster pairs: distance first,
/// then the clusters' representatives (each cluster's minimum leaf id).
/// Distinct pairs never compare equal — the pair of representatives is
/// unique — so the complete-linkage dendrogram is unique under this
/// order, and the NN-chain below reproduces it exactly (see DESIGN.md
/// "Clustering engine" for the argument).
struct MergeKey {
  double Dist;
  std::size_t A; ///< Smaller representative.
  std::size_t B; ///< Larger representative.

  bool operator<(const MergeKey &Other) const {
    if (Dist != Other.Dist)
      return Dist < Other.Dist;
    if (A != Other.A)
      return A < Other.A;
    return B < Other.B;
  }
};

/// One merge: the two cluster representatives (A < B) and the linkage.
struct MergeStep {
  std::size_t A;
  std::size_t B;
  double Height;
};

/// Nearest-neighbor-chain agglomeration over \p D (row-major N x N,
/// mutated in place by Lance-Williams max updates). Complete linkage is
/// reducible — D(X u Y, Z) = max(D(X,Z), D(Y,Z)) >= min(D(X,Z), D(Y,Z))
/// — so every merge of mutual nearest neighbours belongs to the unique
/// canonical dendrogram. O(n^2) total: each chain step is an O(n) scan,
/// and there are at most 3(n-1) steps (each either grows the chain or
/// consumes two of its elements).
std::vector<MergeStep> nnChainMerges(std::size_t N, std::vector<double> &D) {
  std::vector<MergeStep> Steps;
  Steps.reserve(N - 1);
  std::vector<char> Alive(N, 1);
  std::vector<std::size_t> Chain;
  Chain.reserve(N);
  while (Steps.size() + 1 < N) {
    if (Chain.empty()) {
      // Start from the smallest alive representative (leaf 0 is always
      // alive: merged clusters keep their smaller representative).
      std::size_t Start = 0;
      while (!Alive[Start])
        ++Start;
      Chain.push_back(Start);
    }
    std::size_t Top = Chain.back();
    // Unique nearest neighbour of Top under the canonical key.
    MergeKey Best{std::numeric_limits<double>::infinity(), N, N};
    std::size_t BestK = N;
    const double *Row = D.data() + Top * N;
    for (std::size_t K = 0; K < N; ++K) {
      if (!Alive[K] || K == Top)
        continue;
      MergeKey Key{Row[K], std::min(Top, K), std::max(Top, K)};
      if (Key < Best) {
        Best = Key;
        BestK = K;
      }
    }
    if (Chain.size() >= 2 && BestK == Chain[Chain.size() - 2]) {
      // Mutual nearest neighbours: merge, keeping the smaller
      // representative; update its distances to all survivors.
      std::size_t A = std::min(Top, BestK);
      std::size_t B = std::max(Top, BestK);
      Steps.push_back({A, B, D[A * N + B]});
      Chain.pop_back();
      Chain.pop_back();
      Alive[B] = 0;
      for (std::size_t K = 0; K < N; ++K) {
        if (!Alive[K] || K == A)
          continue;
        double Max = std::max(D[A * N + K], D[B * N + K]);
        D[A * N + K] = D[K * N + A] = Max;
      }
    } else {
      Chain.push_back(BestK);
    }
  }
  return Steps;
}

} // namespace

Dendrogram diffcode::cluster::agglomerateDistanceMatrix(
    std::size_t NumItems, std::vector<double> Matrix) {
  Dendrogram Tree;
  Tree.NumLeaves = NumItems;
  if (NumItems == 0)
    return Tree;
  assert(Matrix.size() == NumItems * NumItems && "matrix shape mismatch");

  for (std::size_t I = 0; I < NumItems; ++I) {
    Dendrogram::Node Leaf;
    Leaf.Item = I;
    Tree.Nodes.push_back(Leaf);
  }
  if (NumItems == 1) {
    Tree.Root = 0;
    return Tree;
  }

  std::vector<MergeStep> Steps = nnChainMerges(NumItems, Matrix);

  // Canonical merge order: the greedy O(n^3) reference emits merges with
  // strictly increasing keys, so sorting the chain-discovered merges by
  // key reproduces its sequence exactly (keys are distinct — each merge
  // retires its larger representative for good).
  std::sort(Steps.begin(), Steps.end(),
            [](const MergeStep &X, const MergeStep &Y) {
              return MergeKey{X.Height, X.A, X.B} <
                     MergeKey{Y.Height, Y.A, Y.B};
            });

  // Replay: map each representative to its current subtree.
  std::vector<int> NodeOf(NumItems);
  for (std::size_t I = 0; I < NumItems; ++I)
    NodeOf[I] = static_cast<int>(I);
  std::size_t MergeIndex = 0;
  for (const MergeStep &Step : Steps) {
    // Fault-injection point: merge ordinal + item count form a stable key
    // (the merge sequence is canonical, so this fires identically on
    // every thread count).
    support::throwIfFault(support::FaultSite::Clustering,
                          (static_cast<std::uint64_t>(NumItems) << 32) |
                              MergeIndex++);
    Dendrogram::Node Merge;
    Merge.Left = NodeOf[Step.A];
    Merge.Right = NodeOf[Step.B];
    Merge.Height = Step.Height;
    NodeOf[Step.A] = static_cast<int>(Tree.Nodes.size());
    Tree.Nodes.push_back(Merge);
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

Dendrogram diffcode::cluster::agglomerativeCluster(
    std::size_t NumItems,
    const std::function<double(std::size_t, std::size_t)> &Dist) {
  return agglomerateDistanceMatrix(NumItems,
                                   pairwiseDistanceMatrix(NumItems, Dist));
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
