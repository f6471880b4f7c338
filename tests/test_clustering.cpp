//===- tests/test_clustering.cpp - Hierarchical clustering tests -----------===//

#include "cluster/HierarchicalClustering.h"

#include "cluster/Distance.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

using namespace diffcode;
using namespace diffcode::cluster;

namespace {

/// Distance matrix over points on a line; distance = |a - b| / 100 to
/// stay within [0,1].
std::vector<double> pointMatrix(const std::vector<double> &Points) {
  return pairwiseDistanceMatrix(Points.size(),
                                [&](std::size_t I, std::size_t J) {
                                  return std::abs(Points[I] - Points[J]) /
                                         100.0;
                                });
}

Dendrogram clusterPoints(const std::vector<double> &Points) {
  return agglomerateDistanceMatrix(Points.size(), pointMatrix(Points));
}

std::set<std::set<std::size_t>>
asSets(const std::vector<std::vector<std::size_t>> &Clusters) {
  std::set<std::set<std::size_t>> Out;
  for (const auto &Cluster : Clusters)
    Out.insert(std::set<std::size_t>(Cluster.begin(), Cluster.end()));
  return Out;
}

} // namespace

TEST(Clustering, EmptyInput) {
  Dendrogram Tree = agglomerateDistanceMatrix(0, {});
  EXPECT_TRUE(Tree.empty());
  EXPECT_TRUE(Tree.cut(0.5).empty());
}

TEST(Clustering, SingleItem) {
  Dendrogram Tree = clusterPoints({1.0});
  EXPECT_EQ(Tree.leafCount(), 1u);
  auto Clusters = Tree.cut(0.0);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0], std::vector<std::size_t>{0});
}

TEST(Clustering, TwoWellSeparatedGroups) {
  // {0, 1, 2} near zero, {50, 51} far away.
  Dendrogram Tree = clusterPoints({0.0, 1.0, 2.0, 50.0, 51.0});
  auto Clusters = asSets(Tree.cut(0.1)); // threshold 10 units
  EXPECT_EQ(Clusters.size(), 2u);
  EXPECT_TRUE(Clusters.count({0, 1, 2}));
  EXPECT_TRUE(Clusters.count({3, 4}));
}

TEST(Clustering, CutAtZeroSeparatesDistinctItems) {
  Dendrogram Tree = clusterPoints({0.0, 5.0, 10.0});
  EXPECT_EQ(Tree.cut(0.0).size(), 3u);
}

TEST(Clustering, CutAboveMaxMergesAll) {
  Dendrogram Tree = clusterPoints({0.0, 5.0, 10.0, 80.0});
  auto Clusters = Tree.cut(1.0);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0].size(), 4u);
}

TEST(Clustering, CompleteLinkageUsesMaxPairDistance) {
  // Chain 0-4-8: single linkage would merge everything at 4; complete
  // linkage merges {0,4} at 4 then {0,4,8} at 8.
  Dendrogram Tree = clusterPoints({0.0, 4.0, 8.0});
  const auto &Nodes = Tree.nodes();
  // Two merge nodes exist after the three leaves.
  ASSERT_EQ(Nodes.size(), 5u);
  EXPECT_DOUBLE_EQ(Nodes[3].Height, 0.04);
  EXPECT_DOUBLE_EQ(Nodes[4].Height, 0.08);
}

TEST(Clustering, MergeHeightsAreMonotone) {
  Rng R(99);
  std::vector<double> Points;
  for (int I = 0; I < 30; ++I)
    Points.push_back(static_cast<double>(R.range(0, 100)));
  Dendrogram Tree = clusterPoints(Points);
  // Complete linkage is monotone: each successive merge has height >= the
  // previous one (creation order == merge order in our builder).
  double Last = 0.0;
  for (const auto &Node : Tree.nodes()) {
    if (Node.isLeaf())
      continue;
    EXPECT_GE(Node.Height + 1e-12, Last);
    Last = Node.Height;
  }
}

// The clustering fault point is keyed (N << 32) | merge ordinal, the
// ordinal counted from 0, and evaluated once before each merge under the
// class's scope (DiffCode::clusterClass keys it by the class name). So a
// campaign fails the agglomeration at the first ordinal whose key fires,
// and one whose keys never fire evaluates N - 1 points.
TEST(Clustering, FaultKeyIsItemCountAndMergeOrdinal) {
  Rng R(3);
  std::vector<double> Points;
  for (int I = 0; I < 24; ++I)
    Points.push_back(static_cast<double>(R.range(0, 100)));
  const std::size_t N = Points.size();
  const std::vector<double> D = pointMatrix(Points);
  const std::uint64_t ClassScope = support::fnv1a64("javax.crypto.Cipher");
  const auto Site = support::FaultSite::Clustering;
  auto PlanFor = [Site](std::uint64_t Seed) {
    support::FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Rate = 0.05;
    Plan.SiteMask = support::faultSiteBit(Site);
    return Plan;
  };
  // The first merge ordinal whose key fires under Plan; N - 1 if none.
  auto FirstFiring = [&](const support::FaultPlan &Plan) {
    support::FaultScope Scope(&Plan, ClassScope);
    std::size_t K = 0;
    while (K + 1 < N &&
           !support::faultPoint(Site,
                                (static_cast<std::uint64_t>(N) << 32) | K))
      ++K;
    return K;
  };

  {
    // Seed 8 first fires at ordinal 9, so the ordinal is not pinned by
    // a fault at the very first merge.
    support::FaultPlan Plan = PlanFor(8);
    const std::size_t K = FirstFiring(Plan);
    ASSERT_GT(K, 0u);
    ASSERT_LT(K + 1, N);
    support::FaultStats Stats;
    Plan.Stats = &Stats;
    support::FaultScope Scope(&Plan, ClassScope);
    EXPECT_THROW(agglomerateDistanceMatrix(N, D), support::FaultInjected);
    EXPECT_EQ(Stats.evaluated(Site), K + 1);
    EXPECT_EQ(Stats.fired(Site), 1u);
  }
  {
    // Seed 5 never fires: every merge evaluates its point once.
    support::FaultPlan Plan = PlanFor(5);
    ASSERT_EQ(FirstFiring(Plan) + 1, N);
    support::FaultStats Stats;
    Plan.Stats = &Stats;
    support::FaultScope Scope(&Plan, ClassScope);
    EXPECT_EQ(agglomerateDistanceMatrix(N, D).nodes().size(), 2 * N - 1);
    EXPECT_EQ(Stats.evaluated(Site), N - 1);
    EXPECT_EQ(Stats.fired(Site), 0u);
  }
}

TEST(Clustering, EveryLeafInExactlyOneCluster) {
  Rng R(7);
  std::vector<double> Points;
  for (int I = 0; I < 25; ++I)
    Points.push_back(static_cast<double>(R.range(0, 100)));
  Dendrogram Tree = clusterPoints(Points);
  for (double Threshold : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    auto Clusters = Tree.cut(Threshold);
    std::vector<bool> Seen(Points.size(), false);
    for (const auto &Cluster : Clusters)
      for (std::size_t Item : Cluster) {
        EXPECT_FALSE(Seen[Item]);
        Seen[Item] = true;
      }
    EXPECT_TRUE(std::all_of(Seen.begin(), Seen.end(),
                            [](bool B) { return B; }));
  }
}

TEST(Clustering, ClustersSortedBySize) {
  Dendrogram Tree = clusterPoints({0.0, 1.0, 2.0, 90.0});
  auto Clusters = Tree.cut(0.1);
  ASSERT_GE(Clusters.size(), 2u);
  for (std::size_t I = 1; I < Clusters.size(); ++I)
    EXPECT_GE(Clusters[I - 1].size(), Clusters[I].size());
}

TEST(Clustering, RenderShowsLeavesAndHeights) {
  Dendrogram Tree = clusterPoints({0.0, 1.0});
  std::string Art = Tree.render([](std::size_t Item) {
    return "item" + std::to_string(Item);
  });
  EXPECT_NE(Art.find("item0"), std::string::npos);
  EXPECT_NE(Art.find("item1"), std::string::npos);
  EXPECT_NE(Art.find("[0.010]"), std::string::npos);
}

TEST(Clustering, RenderIndentsMultilineLabels) {
  Dendrogram Tree = clusterPoints({0.0, 1.0});
  std::string Art = Tree.render([](std::size_t Item) {
    return "- removed\n+ added " + std::to_string(Item);
  });
  EXPECT_NE(Art.find("- removed"), std::string::npos);
  EXPECT_NE(Art.find("+ added"), std::string::npos);
}

TEST(Clustering, UsageChangeWrapperGroupsSimilarFixes) {
  using namespace diffcode::usage;
  using namespace diffcode::analysis;
  static support::Interner Table;
  auto MakeChange = [](const char *From, const char *To) {
    return UsageChange::intern(
        Table, "Cipher",
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(From))}},
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(To))}});
  };
  std::vector<UsageChange> Changes = {
      MakeChange("AES", "AES/CBC/PKCS5Padding"),
      MakeChange("AES/ECB", "AES/CBC/PKCS5Padding"),
      MakeChange("AES", "AES/GCM/NoPadding"),
  };
  // A fourth, very different change (digest swap).
  Changes.push_back(UsageChange::intern(
      Table, "Cipher",
      {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.doFinal/0")}},
      {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.unwrap/3")}}));

  Dendrogram Tree = clusterUsageChanges(Changes);
  // The three mode fixes must merge before the unrelated change joins.
  auto Clusters = asSets(Tree.cut(0.6));
  bool FoundModeCluster = false;
  for (const auto &Cluster : Clusters)
    if (Cluster.count(0) && Cluster.count(1) && Cluster.count(2) &&
        !Cluster.count(3))
      FoundModeCluster = true;
  EXPECT_TRUE(FoundModeCluster);
}
