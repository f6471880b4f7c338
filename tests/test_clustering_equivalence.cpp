//===- tests/test_clustering_equivalence.cpp - Engine vs naive oracle -----===//
//
// Differential harness for the clustering engine: the production greedy
// over a Lance-Williams-updated matrix must reproduce the naive
// reference in tests/NaiveClustering.h, which recomputes every linkage
// from the raw matrix, exactly — same merges in the same order, heights
// equal by ==, and the matching flat-cluster counts at every cut — on
// seeded random usage-change corpora and on tie-heavy synthetic metrics.
// Ties are the hard part: usageDist values like 0.0, 0.5, and 1.0 recur
// constantly, and complete linkage is only unique once the canonical
// tie-breaking order fixes it.
//
//===----------------------------------------------------------------------===//

#include "cluster/HierarchicalClustering.h"

#include "NaiveClustering.h"
#include "cluster/Distance.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

/// Random feature path over a small vocabulary, so exact duplicates and
/// tied distances are common across a corpus.
FeaturePath randomPath(Rng &R) {
  static const char *Roots[] = {"Cipher", "MessageDigest", "SecureRandom"};
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "Cipher.doFinal/1",
                                  "MessageDigest.getInstance/1",
                                  "SecureRandom.setSeed/1"};
  static const char *Strings[] = {"AES", "AES/CBC/PKCS5Padding",
                                  "AES/GCM/NoPadding", "DES", "SHA-1",
                                  "SHA-256"};
  FeaturePath Path = {NodeLabel::root(Roots[R.index(3)])};
  Path.push_back(NodeLabel::method(Methods[R.index(5)]));
  if (R.chance(0.7)) {
    unsigned Index = static_cast<unsigned>(R.range(1, 3));
    if (R.chance(0.6))
      Path.push_back(
          NodeLabel::arg(Index, AbstractValue::strConst(Strings[R.index(6)])));
    else
      Path.push_back(NodeLabel::arg(Index, AbstractValue::byteArrayTop()));
  }
  return Path;
}

std::vector<UsageChange> randomCorpus(unsigned Seed, std::size_t Size) {
  static support::Interner Table;
  Rng R(Seed * 9176u + 13);
  std::vector<UsageChange> Changes;
  Changes.reserve(Size);
  for (std::size_t C = 0; C < Size; ++C) {
    std::vector<FeaturePath> Removed, Added;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Removed.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Added.push_back(randomPath(R));
    Changes.push_back(UsageChange::intern(Table, "Cipher", Removed, Added));
  }
  return Changes;
}

/// The engine's tree over \p D has the engine's node layout and
/// reproduces the oracle's merge list exactly; its cuts then follow.
/// Complete-linkage heights never decrease towards the root, so a cut at
/// T leaves one flat cluster per item minus each merge at or below T.
void expectMatchesOracle(std::size_t N, const std::vector<double> &D) {
  Dendrogram Tree = agglomerateDistanceMatrix(N, D);
  ASSERT_EQ(Tree.leafCount(), N);
  ASSERT_TRUE(oracle::hasEngineLayout(Tree));
  std::vector<oracle::Merge> Expected = oracle::naiveMerges(N, D);
  EXPECT_EQ(oracle::mergesOf(Tree), Expected);
  for (double Threshold : {0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0}) {
    std::size_t AtOrBelow =
        std::count_if(Expected.begin(), Expected.end(),
                      [&](const oracle::Merge &M) {
                        return M.Height <= Threshold;
                      });
    EXPECT_EQ(Tree.cut(Threshold).size(), N - AtOrBelow)
        << "cut at " << Threshold;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Random usage-change corpora (50-300 changes), shared distance matrix.
//===----------------------------------------------------------------------===//

class CorpusEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CorpusEquivalence, GreedyMatchesNaiveOracle) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  // Sizes sweep the 50-300 range across the seeds.
  std::size_t Size = 50 + (Seed * 83) % 251;
  std::vector<UsageChange> Changes = randomCorpus(Seed, Size);
  std::vector<double> D = usageDistanceMatrix(Changes);
  expectMatchesOracle(Size, D);
  // clusterUsageChanges is this matrix agglomerated.
  EXPECT_EQ(oracle::mergesOf(clusterUsageChanges(Changes)),
            oracle::mergesOf(agglomerateDistanceMatrix(Size, D)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusEquivalence, ::testing::Range(0, 6));

//===----------------------------------------------------------------------===//
// Tie-heavy synthetic metrics: distances drawn from a 5-value grid, so
// nearly every merge decision is a tie resolved by the canonical order.
//===----------------------------------------------------------------------===//

class TieGridEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TieGridEquivalence, QuantizedDistancesAgree) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Rng R(Seed * 517u + 3);
  std::size_t N = 20 + (Seed % 3) * 20;
  std::vector<double> D(N * N, 0.0);
  static const double Grid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I + 1; J < N; ++J)
      D[I * N + J] = D[J * N + I] = Grid[R.index(5)];
  expectMatchesOracle(N, D);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieGridEquivalence, ::testing::Range(0, 24));

//===----------------------------------------------------------------------===//
// Duplicate items: zero-distance pairs everywhere.
//===----------------------------------------------------------------------===//

TEST(ClusteringEquivalence, DuplicateItemsAgree) {
  std::vector<UsageChange> Base = randomCorpus(99, 20);
  std::vector<UsageChange> Changes;
  for (int Copy = 0; Copy < 4; ++Copy)
    Changes.insert(Changes.end(), Base.begin(), Base.end());
  expectMatchesOracle(Changes.size(), usageDistanceMatrix(Changes));
}

//===----------------------------------------------------------------------===//
// Small shapes: the engine on the degenerate inputs.
//===----------------------------------------------------------------------===//

TEST(ClusteringEquivalence, TinyInputsAgree) {
  for (std::size_t N : {0u, 1u, 2u, 3u}) {
    std::vector<double> D(N * N, 0.0);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = I + 1; J < N; ++J)
        D[I * N + J] = D[J * N + I] = 0.5;
    expectMatchesOracle(N, D);
  }
}
