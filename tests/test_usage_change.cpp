//===- tests/test_usage_change.cpp - Diff & pairing tests (Section 3.5) ----===//

#include "usage/UsageChange.h"

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

/// One shared table per test binary: append-only, so tests cannot
/// interfere with each other through it.
support::Interner &table() {
  static support::Interner Table;
  return Table;
}

NodeLabel rootL(const char *T) { return NodeLabel::root(T); }
NodeLabel methodL(const char *Sig) { return NodeLabel::method(Sig); }
NodeLabel strArg(unsigned I, const char *V) {
  return NodeLabel::arg(I, AbstractValue::strConst(V));
}

/// Builds a Cipher DAG with a getInstance(algo) and optional extra event.
UsageDag cipherDag(const char *Algo, bool WithIv = false) {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Enc = Objects.getOrCreate({13, 1, 0}, "Cipher");
  Log[Enc].push_back(
      {"Cipher.getInstance/1", {AbstractValue::strConst(Algo)}});
  std::vector<AbstractValue> InitArgs = {
      AbstractValue::intConst(1, "ENCRYPT_MODE"),
      AbstractValue::topObject("Key")};
  if (WithIv)
    InitArgs.push_back(AbstractValue::topObject("IvParameterSpec"));
  Log[Enc].push_back(
      {"Cipher.init/" + std::to_string(InitArgs.size()), InitArgs});
  return UsageDag::build(Objects, Log, Enc);
}

/// A Cipher DAG over \p Events, in log order.
UsageDag cipherEvents(std::vector<UsageEvent> Events) {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Enc = Objects.getOrCreate({13, 1, 0}, "Cipher");
  Log[Enc] = std::move(Events);
  return UsageDag::build(Objects, Log, Enc);
}

/// Section 3.5 spelled out: the solver pairs, diffDags diffs every pair.
/// The oracle for deriveUsageChanges, which short-circuits identical
/// DAG multisets.
std::vector<UsageChange> pairAndDiff(const std::vector<UsageDag> &Old,
                                     const std::vector<UsageDag> &New,
                                     const std::string &TypeName,
                                     support::Interner &Table) {
  std::vector<UsageChange> Out;
  UsageDag Padding = UsageDag::emptyFor(TypeName);
  for (auto [O, N] : pairDags(Old, New))
    Out.push_back(diffDags(O == SIZE_MAX ? Padding : Old[O],
                           N == SIZE_MAX ? Padding : New[N], Table));
  return Out;
}

std::vector<std::string> strs(const std::vector<FeaturePath> &Paths) {
  std::vector<std::string> Out;
  for (const FeaturePath &P : Paths)
    Out.push_back(pathToString(P));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<support::PathId> intern(const std::vector<FeaturePath> &Paths) {
  std::vector<support::PathId> Ids;
  for (const FeaturePath &P : Paths)
    Ids.push_back(table().path(P));
  return Ids;
}

/// The pre-interning quadratic reference implementation of Shortest(P),
/// kept verbatim as the property-test oracle for the linear-pass
/// elimination.
std::vector<FeaturePath> shortestPathsQuadratic(
    const std::vector<FeaturePath> &Paths) {
  auto IsStrictPrefix = [](const FeaturePath &A, const FeaturePath &B) {
    if (A.size() >= B.size())
      return false;
    return std::equal(A.begin(), A.end(), B.begin());
  };
  std::vector<FeaturePath> Out;
  for (const FeaturePath &Candidate : Paths) {
    bool HasPrefix = false;
    for (const FeaturePath &Other : Paths)
      if (IsStrictPrefix(Other, Candidate)) {
        HasPrefix = true;
        break;
      }
    if (!HasPrefix)
      Out.push_back(Candidate);
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shortest-paths
//===----------------------------------------------------------------------===//

TEST(ShortestPaths, RemovesExtensionsOfKeptPaths) {
  FeaturePath AB = {rootL("T"), methodL("T.a")};
  FeaturePath ABC = {rootL("T"), methodL("T.a"), strArg(1, "x")};
  FeaturePath BC = {methodL("T.b"), strArg(1, "y")};
  std::vector<support::PathId> Result =
      shortestPaths(intern({AB, ABC, BC}), table());
  ASSERT_EQ(Result.size(), 2u);
  EXPECT_TRUE(std::find(Result.begin(), Result.end(), table().path(AB)) !=
              Result.end());
  EXPECT_TRUE(std::find(Result.begin(), Result.end(), table().path(BC)) !=
              Result.end());
}

TEST(ShortestPaths, IdenticalPathsAreNotPrefixesOfEachOther) {
  FeaturePath P = {rootL("T"), methodL("T.a")};
  std::vector<support::PathId> Result =
      shortestPaths(intern({P, P}), table());
  EXPECT_EQ(Result.size(), 2u); // strict prefix only — duplicates survive
}

TEST(ShortestPaths, EmptyInput) {
  EXPECT_TRUE(shortestPaths({}, table()).empty());
}

TEST(ShortestPaths, PreservesInputOrder) {
  FeaturePath A = {rootL("T"), methodL("T.z")};
  FeaturePath B = {rootL("T"), methodL("T.a")};
  FeaturePath C = {methodL("T.m"), strArg(1, "v")};
  std::vector<support::PathId> In = intern({A, B, C});
  std::vector<support::PathId> Result = shortestPaths(In, table());
  EXPECT_EQ(Result, In); // nothing eliminated -> order untouched
}

TEST(ShortestPaths, LinearPassMatchesQuadraticReference) {
  // Property test for the sort-then-eliminate rewrite: random path
  // multisets (shared prefixes, duplicates, varying depths) must produce
  // exactly the quadratic oracle's survivor multiset, in input order.
  std::mt19937 Rng(20260805);
  const char *Methods[] = {"T.a", "T.ab", "T.b", "T.init", "T.doFinal"};
  const char *Values[] = {"x", "xy", "AES", "AES/GCM", ""};
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<FeaturePath> Paths;
    std::size_t N = Rng() % 12;
    for (std::size_t I = 0; I < N; ++I) {
      FeaturePath P = {rootL("T")};
      std::size_t Depth = Rng() % 4;
      for (std::size_t D = 0; D < Depth; ++D) {
        P.push_back(methodL(Methods[Rng() % 5]));
        if (Rng() % 2)
          P.push_back(strArg(1 + Rng() % 2, Values[Rng() % 5]));
      }
      Paths.push_back(std::move(P));
      // Occasionally duplicate or extend an earlier path to force the
      // prefix/duplicate corner cases.
      if (!Paths.empty() && Rng() % 3 == 0) {
        FeaturePath Copy = Paths[Rng() % Paths.size()];
        if (Rng() % 2)
          Copy.push_back(methodL(Methods[Rng() % 5]));
        Paths.push_back(std::move(Copy));
      }
    }

    std::vector<FeaturePath> Expected = shortestPathsQuadratic(Paths);
    std::vector<support::PathId> Actual =
        shortestPaths(intern(Paths), table());
    ASSERT_EQ(Actual.size(), Expected.size()) << "round " << Round;
    for (std::size_t I = 0; I < Actual.size(); ++I)
      EXPECT_EQ(table().materialize(Actual[I]), Expected[I])
          << "round " << Round << " survivor " << I;
  }
}

//===----------------------------------------------------------------------===//
// diffDags
//===----------------------------------------------------------------------===//

TEST(DiffDags, IdenticalDagsYieldEmptyChange) {
  UsageDag A = cipherDag("AES");
  UsageDag B = cipherDag("AES");
  UsageChange Change = diffDags(A, B, table());
  EXPECT_TRUE(Change.isEmpty());
  EXPECT_EQ(Change.TypeName, "Cipher");
}

TEST(DiffDags, AlgorithmSwapProducesMinimalFeatures) {
  UsageChange Change =
      diffDags(cipherDag("AES"), cipherDag("AES/CBC", true), table());
  std::vector<std::string> Removed = strs(Change.removedPaths());
  std::vector<std::string> Added = strs(Change.addedPaths());
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_EQ(Removed[0], "Cipher Cipher.getInstance arg1:AES");
  ASSERT_EQ(Added.size(), 2u);
  EXPECT_EQ(Added[0], "Cipher Cipher.getInstance arg1:AES/CBC");
  EXPECT_EQ(Added[1], "Cipher Cipher.init arg3:IvParameterSpec");
}

TEST(DiffDags, AgainstEmptyIsPureAddition) {
  UsageChange Change =
      diffDags(UsageDag::emptyFor("Cipher"), cipherDag("AES"), table());
  EXPECT_TRUE(Change.Removed.empty());
  EXPECT_FALSE(Change.Added.empty());
  // The shortest added paths start at the method level (the root is
  // shared).
  for (const FeaturePath &P : Change.addedPaths())
    EXPECT_EQ(P.size(), 2u);
}

TEST(DiffDags, SymmetricSwapReversesFeatureSets) {
  UsageDag A = cipherDag("AES"), B = cipherDag("DES");
  UsageChange Fwd = diffDags(A, B, table());
  UsageChange Bwd = diffDags(B, A, table());
  EXPECT_EQ(Fwd.Removed, Bwd.Added);
  EXPECT_EQ(Fwd.Added, Bwd.Removed);
}

TEST(UsageChange, SameFeaturesIgnoresOrigin) {
  UsageChange A = diffDags(cipherDag("AES"), cipherDag("DES"), table());
  UsageChange B = A;
  B.Origin = "elsewhere";
  EXPECT_TRUE(A.sameFeatures(B));
  UsageChange C = diffDags(cipherDag("AES"), cipherDag("RC4"), table());
  EXPECT_FALSE(A.sameFeatures(C));
}

TEST(UsageChange, SameFeaturesAcrossDistinctInterners) {
  // Two pipelines, two tables: id values differ (intern order does), but
  // sameFeatures must still compare the underlying label structure.
  support::Interner Other;
  // Skew Other's id assignment relative to the shared table.
  Other.path({methodL("T.skew"), strArg(1, "skew")});
  UsageChange A = diffDags(cipherDag("AES"), cipherDag("DES"), table());
  UsageChange B = diffDags(cipherDag("AES"), cipherDag("DES"), Other);
  B.Origin = "elsewhere";
  EXPECT_TRUE(A.sameFeatures(B));
  EXPECT_TRUE(B.sameFeatures(A));
  UsageChange C = diffDags(cipherDag("AES"), cipherDag("RC4"), Other);
  EXPECT_FALSE(A.sameFeatures(C));
}

TEST(UsageChange, StrRendersSignedPaths) {
  UsageChange Change = diffDags(cipherDag("AES"), cipherDag("DES"), table());
  std::string Text = Change.str();
  EXPECT_NE(Text.find("- Cipher Cipher.getInstance arg1:AES"),
            std::string::npos);
  EXPECT_NE(Text.find("+ Cipher Cipher.getInstance arg1:DES"),
            std::string::npos);
}

TEST(UsageChange, InternFactoryRoundTrips) {
  FeaturePath R = {rootL("Cipher"), methodL("Cipher.getInstance/1"),
                   strArg(1, "AES")};
  FeaturePath A = {rootL("Cipher"), methodL("Cipher.getInstance/1"),
                   strArg(1, "AES/GCM")};
  UsageChange Change =
      UsageChange::intern(table(), "Cipher", {R}, {A}, "p@c1");
  EXPECT_EQ(Change.TypeName, "Cipher");
  EXPECT_EQ(Change.Origin, "p@c1");
  ASSERT_EQ(Change.removedPaths().size(), 1u);
  EXPECT_EQ(Change.removedPaths()[0], R);
  ASSERT_EQ(Change.addedPaths().size(), 1u);
  EXPECT_EQ(Change.addedPaths()[0], A);
  EXPECT_EQ(Change.pathString(Change.Removed[0]), pathToString(R));
}

//===----------------------------------------------------------------------===//
// pairDags
//===----------------------------------------------------------------------===//

TEST(PairDags, MatchesMostSimilarDags) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  Old.push_back(cipherDag("DES"));
  // New order reversed; the matcher must recover the correspondence.
  New.push_back(cipherDag("DES"));
  New.push_back(cipherDag("AES"));
  auto Pairs = pairDags(Old, New);
  ASSERT_EQ(Pairs.size(), 2u);
  for (auto [O, N] : Pairs) {
    ASSERT_NE(O, static_cast<std::size_t>(-1));
    ASSERT_NE(N, static_cast<std::size_t>(-1));
    EXPECT_DOUBLE_EQ(dagDistance(Old[O], New[N]), 0.0);
  }
}

TEST(PairDags, PadsWhenCountsDiffer) {
  std::vector<UsageDag> Old;
  Old.push_back(cipherDag("AES"));
  std::vector<UsageDag> New;
  New.push_back(cipherDag("AES"));
  New.push_back(cipherDag("DES"));
  auto Pairs = pairDags(Old, New);
  ASSERT_EQ(Pairs.size(), 2u);
  unsigned Unmatched = 0;
  for (auto [O, N] : Pairs)
    if (O == static_cast<std::size_t>(-1))
      ++Unmatched;
  EXPECT_EQ(Unmatched, 1u);
}

TEST(PairDags, EmptyInputs) {
  EXPECT_TRUE(pairDags({}, {}).empty());
  std::vector<UsageDag> One;
  One.push_back(cipherDag("AES"));
  EXPECT_EQ(pairDags(One, {}).size(), 1u);
  EXPECT_EQ(pairDags({}, One).size(), 1u);
}

//===----------------------------------------------------------------------===//
// deriveUsageChanges
//===----------------------------------------------------------------------===//

TEST(DeriveUsageChanges, RefactoringYieldsEmptyChanges) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  New.push_back(cipherDag("AES"));
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].isEmpty());
}

TEST(DeriveUsageChanges, AdditionAndFixDistinguished) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  New.push_back(cipherDag("AES/GCM", true)); // the fix
  New.push_back(cipherDag("RC4"));           // a brand-new usage
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 2u);
  unsigned Fixes = 0, Adds = 0;
  for (const UsageChange &C : Changes) {
    if (!C.Removed.empty() && !C.Added.empty())
      ++Fixes;
    if (C.Removed.empty() && !C.Added.empty())
      ++Adds;
  }
  EXPECT_EQ(Fixes, 1u);
  EXPECT_EQ(Adds, 1u);
}

TEST(DeriveUsageChanges, RemovalDetected) {
  std::vector<UsageDag> Old;
  Old.push_back(cipherDag("AES"));
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, {}, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_FALSE(Changes[0].Removed.empty());
  EXPECT_TRUE(Changes[0].Added.empty());
}

TEST(DeriveUsageChanges, IdenticalMultisetYieldsEmptyChangesWithoutInterning) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  Old.push_back(cipherDag("DES"));
  Old.push_back(cipherDag("AES/GCM", true));
  New.push_back(cipherDag("AES/GCM", true));
  New.push_back(cipherDag("AES"));
  New.push_back(cipherDag("DES"));
  support::Interner Fresh;
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", Fresh);
  ASSERT_EQ(Changes.size(), 3u);
  for (const UsageChange &C : Changes) {
    EXPECT_TRUE(C.isEmpty()) << C.str();
    EXPECT_EQ(C.TypeName, "Cipher");
    EXPECT_EQ(C.Table, &Fresh);
  }
  EXPECT_EQ(Fresh.pathCount(), 0u); // nothing was diffed, so nothing interned
}

TEST(DeriveUsageChanges, EqualSizesWithDifferentMultisetsStillPair) {
  std::vector<UsageDag> Old, New;
  Old.push_back(cipherDag("AES"));
  Old.push_back(cipherDag("DES"));
  New.push_back(cipherDag("DES"));
  New.push_back(cipherDag("AES/GCM", true)); // the fix
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 2u);
  EXPECT_FALSE(Changes[0].isEmpty());
  EXPECT_EQ(strs(Changes[0].removedPaths()),
            std::vector<std::string>{"Cipher Cipher.getInstance arg1:AES"});
  EXPECT_EQ(strs(Changes[0].addedPaths()),
            (std::vector<std::string>{
                "Cipher Cipher.getInstance arg1:AES/GCM",
                "Cipher Cipher.init arg3:IvParameterSpec"}));
  EXPECT_TRUE(Changes[1].isEmpty()); // DES paired with its twin
}

TEST(DeriveUsageChanges, ReorderedLabelTwinsStayEmpty) {
  // A and B share one label set, so dagDistance cannot tell them apart
  // and every matching of {A, B} to {B, A} costs 0. The solver alone
  // may pair A with B and report two spurious changes for code that did
  // not change; the identical multisets must yield two empty changes.
  UsageDag A = cipherEvents(
      {{"Cipher.getInstance/1", {AbstractValue::strConst("AES")}},
       {"Cipher.update/1", {AbstractValue::strConst("X")}}});
  UsageDag B = cipherEvents(
      {{"Cipher.getInstance/1", {AbstractValue::strConst("X")}},
       {"Cipher.update/1", {AbstractValue::strConst("AES")}}});
  ASSERT_DOUBLE_EQ(dagDistance(A, B), 0.0);
  ASSERT_FALSE(A.sameIdentity(B));
  std::vector<UsageChange> Changes =
      deriveUsageChanges({A, B}, {B, A}, "Cipher", table());
  ASSERT_EQ(Changes.size(), 2u);
  for (const UsageChange &C : Changes) {
    EXPECT_TRUE(C.isEmpty()) << C.str();
    EXPECT_EQ(C.TypeName, "Cipher");
  }
}

TEST(DeriveUsageChanges, LabelsThatRenderAlikeKeepTheirDiff) {
  // "1" and 1 both render as arg1:1, but they are different labels: a
  // change between them is a change.
  UsageEvent Str{"Cipher.getInstance/1", {AbstractValue::strConst("1")}};
  UsageEvent Int{"Cipher.getInstance/1", {AbstractValue::intConst(1)}};
  std::vector<UsageDag> Old = {cipherEvents({Str})};
  std::vector<UsageDag> New = {cipherEvents({Int})};
  std::vector<UsageChange> Changes =
      deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_FALSE(Changes[0].isEmpty());

  // Both events in either order are the same DAG, and the path diff
  // agrees: it keeps both arg1:1 paths on each side.
  Old = {cipherEvents({Str, Int})};
  New = {cipherEvents({Int, Str})};
  Changes = deriveUsageChanges(Old, New, "Cipher", table());
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].isEmpty()) << Changes[0].str();
  EXPECT_TRUE(diffDags(Old[0], New[0], table()).isEmpty());
}

TEST(DeriveUsageChanges, CorpusMatchesPairAndDiffOracle) {
  // Every (change, class) of a generated corpus: the derive must equal
  // the explicit pairDags + diffDags composition, change for change.
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  corpus::CorpusOptions Opts;
  Opts.Seed = 42;
  Opts.NumProjects = 60;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  std::vector<const corpus::CodeChange *> Mined = corpus::Miner(Api).mine(C);
  ASSERT_FALSE(Mined.empty());

  core::DiffCode System(Api);
  support::Interner Derived, Oracle;
  std::size_t Identical = 0, Different = 0;
  for (const corpus::CodeChange *Change : Mined) {
    java::AstContext Ctx;
    AnalysisResult OldResult =
        System.analyzeSourceChecked(Change->OldCode, Ctx).Result;
    AnalysisResult NewResult =
        System.analyzeSourceChecked(Change->NewCode, Ctx).Result;
    for (const std::string &Class : Api.targetClasses()) {
      std::vector<UsageDag> Old = System.dagsForClass(OldResult, Class);
      std::vector<UsageDag> New = System.dagsForClass(NewResult, Class);
      if (Old.empty() && New.empty())
        continue;
      bool Same = std::is_permutation(
          Old.begin(), Old.end(), New.begin(), New.end(),
          [](const UsageDag &A, const UsageDag &B) {
            return A.sameIdentity(B);
          });
      if (Same)
        ++Identical;
      else
        ++Different;

      std::vector<UsageChange> Got =
          deriveUsageChanges(Old, New, Class, Derived);
      std::vector<UsageChange> Want = pairAndDiff(Old, New, Class, Oracle);
      ASSERT_EQ(Got.size(), Want.size()) << Change->origin() << " " << Class;
      for (std::size_t I = 0; I < Got.size(); ++I) {
        EXPECT_EQ(Got[I].TypeName, Want[I].TypeName);
        EXPECT_TRUE(Got[I].sameFeatures(Want[I]))
            << Change->origin() << " " << Class << " change " << I << "\n"
            << Got[I].str() << "vs\n"
            << Want[I].str();
      }
    }
  }
  // Both branches ran, so the test cannot pass vacuously.
  EXPECT_GT(Identical, 0u);
  EXPECT_GT(Different, 0u);
}
