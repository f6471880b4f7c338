//===- tests/NaiveClustering.h - O(n^3) complete-linkage oracle ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The greedy complete-linkage reference the production engine
/// (cluster/HierarchicalClustering) is tested against: every step
/// recomputes all cluster-pair linkages as the max over member items of
/// the raw distance matrix and merges the minimum under the canonical
/// (distance, min rep, max rep) order. Its arithmetic is deliberately
/// independent of the engine's (no Lance-Williams updates, member lists
/// instead of an updated matrix), so agreement exercises two genuinely
/// different code paths.
///
/// The oracle yields a merge list; mergesOf() reads the same list back
/// from a production Dendrogram's public node array, so the comparison
/// needs no hook in the library.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_TESTS_NAIVECLUSTERING_H
#define DIFFCODE_TESTS_NAIVECLUSTERING_H

#include "cluster/HierarchicalClustering.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <ostream>
#include <tuple>
#include <vector>

namespace diffcode {
namespace oracle {

/// One merge: the two clusters' representatives (minimum leaf ids,
/// A < B) and the linkage height.
struct Merge {
  std::size_t A;
  std::size_t B;
  double Height;

  friend bool operator==(const Merge &, const Merge &) = default;
  friend std::ostream &operator<<(std::ostream &OS, const Merge &M) {
    return OS << "(" << M.A << ", " << M.B << " @ " << M.Height << ")";
  }
};

/// The O(n^3) greedy agglomeration of \p D (row-major N x N), merges in
/// the order it performs them (strictly increasing canonical keys).
inline std::vector<Merge> naiveMerges(std::size_t N,
                                      const std::vector<double> &D) {
  struct Cluster {
    std::size_t MinItem;
    std::vector<std::size_t> Members;
  };
  std::vector<Cluster> Active;
  for (std::size_t I = 0; I < N; ++I)
    Active.push_back({I, {I}});

  std::vector<Merge> Merges;
  while (Active.size() > 1) {
    auto Best = std::make_tuple(std::numeric_limits<double>::infinity(), N, N);
    std::size_t BestI = 0, BestJ = 1;
    for (std::size_t I = 0; I < Active.size(); ++I)
      for (std::size_t J = I + 1; J < Active.size(); ++J) {
        double Linkage = 0.0;
        for (std::size_t A : Active[I].Members)
          for (std::size_t B : Active[J].Members)
            Linkage = std::max(Linkage, D[A * N + B]);
        auto Key = std::make_tuple(
            Linkage, std::min(Active[I].MinItem, Active[J].MinItem),
            std::max(Active[I].MinItem, Active[J].MinItem));
        if (Key < Best) {
          Best = Key;
          BestI = I;
          BestJ = J;
        }
      }

    auto [Height, A, B] = Best;
    Merges.push_back({A, B, Height});
    Cluster Combined{A, std::move(Active[BestI].Members)};
    Combined.Members.insert(Combined.Members.end(),
                            Active[BestJ].Members.begin(),
                            Active[BestJ].Members.end());
    Active.erase(Active.begin() + BestJ);
    Active.erase(Active.begin() + BestI);
    Active.push_back(std::move(Combined));
  }
  return Merges;
}

/// True when \p Tree has the engine's node layout: leaf I (holding item
/// I) at node I, then one merge node per merge whose children precede it,
/// each node a child at most once, and the root last.
inline bool hasEngineLayout(const cluster::Dendrogram &Tree) {
  const auto &Nodes = Tree.nodes();
  std::size_t N = Tree.leafCount();
  if (N == 0)
    return Nodes.empty();
  if (Nodes.size() != 2 * N - 1 || Tree.root() != int(Nodes.size()) - 1)
    return false;
  std::vector<char> Used(Nodes.size(), 0);
  for (std::size_t I = 0; I < Nodes.size(); ++I) {
    const cluster::Dendrogram::Node &Node = Nodes[I];
    if (I < N) {
      if (!Node.isLeaf() || Node.Item != I)
        return false;
      continue;
    }
    for (int Child : {Node.Left, Node.Right})
      if (Child < 0 || std::size_t(Child) >= I || Used[Child]++)
        return false;
  }
  return true;
}

/// The merge list of \p Tree in node order: for each merge node, the
/// minimum leaf item under its left and right child and its height.
inline std::vector<Merge> mergesOf(const cluster::Dendrogram &Tree) {
  const auto &Nodes = Tree.nodes();
  std::vector<std::size_t> MinItem(Nodes.size());
  std::vector<Merge> Merges;
  for (std::size_t I = 0; I < Nodes.size(); ++I) {
    const cluster::Dendrogram::Node &N = Nodes[I];
    if (N.isLeaf()) {
      MinItem[I] = N.Item;
      continue;
    }
    MinItem[I] = std::min(MinItem[N.Left], MinItem[N.Right]);
    Merges.push_back({MinItem[N.Left], MinItem[N.Right], N.Height});
  }
  return Merges;
}

} // namespace oracle
} // namespace diffcode

#endif // DIFFCODE_TESTS_NAIVECLUSTERING_H
