//===- tests/test_support.cpp - support library unit tests -----------------===//

#include "support/Hungarian.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

using namespace diffcode;

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtils, SplitBasic) {
  std::vector<std::string> Parts = split("a,b,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  std::vector<std::string> Parts = split(",a,,b,", ',');
  ASSERT_EQ(Parts.size(), 5u);
  EXPECT_EQ(Parts[0], "");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[4], "");
}

TEST(StringUtils, SplitNoSeparator) {
  std::vector<std::string> Parts = split("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(StringUtils, JoinInvertsSplit) {
  std::string Text = "x.y.z";
  EXPECT_EQ(join(split(Text, '.'), "."), Text);
}

TEST(StringUtils, JoinEmpty) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(StringUtils, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringUtils, Fnv1a64StandardVectors) {
  EXPECT_EQ(support::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(support::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(support::fnv1a64("foobar"), 0x85944171f73967e8ull);
  // A caller-chosen basis replaces the standard one.
  EXPECT_EQ(support::fnv1a64("", 0x84222325cbf29ce4ull),
            0x84222325cbf29ce4ull);
}

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(levenshtein(std::string("kitten"), std::string("sitting")), 3u);
  EXPECT_EQ(levenshtein(std::string(""), std::string("abc")), 3u);
  EXPECT_EQ(levenshtein(std::string("abc"), std::string("")), 3u);
  EXPECT_EQ(levenshtein(std::string("same"), std::string("same")), 0u);
}

TEST(Levenshtein, RatioRange) {
  EXPECT_DOUBLE_EQ(levenshteinRatio(std::string("abc"), std::string("abc")),
                   1.0);
  EXPECT_DOUBLE_EQ(levenshteinRatio(std::string(""), std::string("")), 1.0);
  EXPECT_DOUBLE_EQ(levenshteinRatio(std::string("abc"), std::string("xyz")),
                   0.0);
}

TEST(Levenshtein, WorksOverTokenVectors) {
  std::vector<std::string> A = {"init", "ENCRYPT_MODE"};
  std::vector<std::string> B = {"init", "DECRYPT_MODE"};
  EXPECT_EQ(levenshtein(A, B), 1u);
  EXPECT_DOUBLE_EQ(levenshteinRatio(A, B), 0.5);
}

/// Property suite: Levenshtein is a metric on random strings.
class LevenshteinProperty : public ::testing::TestWithParam<int> {};

TEST_P(LevenshteinProperty, MetricAxioms) {
  Rng R(GetParam());
  auto RandomString = [&] {
    std::string S;
    std::size_t Len = R.range(0, 12);
    for (std::size_t I = 0; I < Len; ++I)
      S += static_cast<char>('a' + R.range(0, 3));
    return S;
  };
  std::string A = RandomString(), B = RandomString(), C = RandomString();
  std::size_t AB = levenshtein(A, B);
  std::size_t BA = levenshtein(B, A);
  // Symmetry.
  EXPECT_EQ(AB, BA);
  // Identity of indiscernibles.
  EXPECT_EQ(levenshtein(A, A), 0u);
  if (AB == 0)
    EXPECT_EQ(A, B);
  // Triangle inequality.
  EXPECT_LE(levenshtein(A, C), AB + levenshtein(B, C));
  // Bounded by max length.
  EXPECT_LE(AB, std::max(A.size(), B.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinProperty,
                         ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Hungarian assignment
//===----------------------------------------------------------------------===//

TEST(Hungarian, TrivialSingle) {
  CostMatrix M(1, 1);
  M.at(0, 0) = 3.5;
  Assignment A = solveAssignment(M);
  ASSERT_EQ(A.RowToCol.size(), 1u);
  EXPECT_EQ(A.RowToCol[0], 0u);
  EXPECT_DOUBLE_EQ(A.TotalCost, 3.5);
}

TEST(Hungarian, PicksCheaperDiagonal) {
  // Identity assignment costs 2; the swap costs 0.
  CostMatrix M(2, 2);
  M.at(0, 0) = 1.0;
  M.at(0, 1) = 0.0;
  M.at(1, 0) = 0.0;
  M.at(1, 1) = 1.0;
  Assignment A = solveAssignment(M);
  EXPECT_EQ(A.RowToCol[0], 1u);
  EXPECT_EQ(A.RowToCol[1], 0u);
  EXPECT_DOUBLE_EQ(A.TotalCost, 0.0);
}

TEST(Hungarian, ClassicExample) {
  // Known optimum 5 (1+2+2? -> verified by brute force below too).
  CostMatrix M(3, 3);
  double Vals[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  for (int R = 0; R < 3; ++R)
    for (int C = 0; C < 3; ++C)
      M.at(R, C) = Vals[R][C];
  Assignment A = solveAssignment(M);
  EXPECT_DOUBLE_EQ(A.TotalCost, 5.0);
}

TEST(Hungarian, RectangularMoreRows) {
  CostMatrix M(3, 2);
  M.at(0, 0) = 5;
  M.at(0, 1) = 5;
  M.at(1, 0) = 1;
  M.at(1, 1) = 5;
  M.at(2, 0) = 5;
  M.at(2, 1) = 1;
  Assignment A = solveAssignment(M);
  // Row 0 pairs with padding.
  EXPECT_EQ(A.RowToCol[0], Assignment::Unmatched);
  EXPECT_EQ(A.RowToCol[1], 0u);
  EXPECT_EQ(A.RowToCol[2], 1u);
  EXPECT_DOUBLE_EQ(A.TotalCost, 2.0);
}

TEST(Hungarian, RectangularMoreCols) {
  CostMatrix M(1, 3);
  M.at(0, 0) = 2;
  M.at(0, 1) = 1;
  M.at(0, 2) = 3;
  Assignment A = solveAssignment(M);
  EXPECT_EQ(A.RowToCol[0], 1u);
  EXPECT_DOUBLE_EQ(A.TotalCost, 1.0);
}

TEST(Hungarian, EmptyMatrix) {
  CostMatrix M(0, 0);
  Assignment A = solveAssignment(M);
  EXPECT_TRUE(A.RowToCol.empty());
  EXPECT_DOUBLE_EQ(A.TotalCost, 0.0);
}

/// Property: the solver matches brute force on random square matrices.
class HungarianProperty : public ::testing::TestWithParam<int> {};

TEST_P(HungarianProperty, MatchesBruteForce) {
  Rng R(GetParam() * 977 + 11);
  std::size_t N = 1 + R.range(0, 4); // up to 5x5: 120 permutations
  CostMatrix M(N, N);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < N; ++J)
      M.at(I, J) = static_cast<double>(R.range(0, 20));

  Assignment A = solveAssignment(M);

  std::vector<std::size_t> Perm(N);
  std::iota(Perm.begin(), Perm.end(), 0);
  double Best = 1e18;
  do {
    double Cost = 0;
    for (std::size_t I = 0; I < N; ++I)
      Cost += M.at(I, Perm[I]);
    Best = std::min(Best, Cost);
  } while (std::next_permutation(Perm.begin(), Perm.end()));

  EXPECT_DOUBLE_EQ(A.TotalCost, Best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianProperty, ::testing::Range(0, 30));

//===----------------------------------------------------------------------===//
// Rng determinism
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.range(0, 1000), B.range(0, 1000));
}

TEST(Rng, RangeIsInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 200; ++I) {
    std::uint64_t V = R.range(2, 4);
    EXPECT_GE(V, 2u);
    EXPECT_LE(V, 4u);
    SawLo = SawLo || V == 2;
    SawHi = SawHi || V == 4;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ForkIndependence) {
  Rng A(9);
  Rng Child = A.fork();
  // The child stream must differ from a fresh same-seed parent's stream.
  Rng B(9);
  B.fork();
  EXPECT_EQ(Child.range(0, 1u << 30), Rng(Rng(9).engine()()).range(0, 1u << 30));
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
  // Header line and separator line have equal length.
  std::vector<std::string> Lines = split(Out, '\n');
  ASSERT_GE(Lines.size(), 4u);
  EXPECT_EQ(Lines[0].size(), Lines[1].size());
}

TEST(TablePrinter, PadsShortRows) {
  TablePrinter T({"a", "b", "c"});
  T.addRow({"only"});
  std::ostringstream OS;
  T.print(OS);
  EXPECT_NE(OS.str().find("only"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Diagnostics & locations (javaast support types)
//===----------------------------------------------------------------------===//

#include "javaast/Diagnostics.h"

TEST(Diagnostics, RenderedInToolStyle) {
  diffcode::java::DiagnosticsEngine Engine;
  Engine.error({3, 7, 0}, "expected ';' after statement");
  Engine.warning({1, 1, 0}, "try statement without catch");
  ASSERT_EQ(Engine.all().size(), 2u);
  EXPECT_EQ(Engine.all()[0].str(), "3:7: error: expected ';' after statement");
  EXPECT_EQ(Engine.all()[1].str(),
            "1:1: warning: try statement without catch");
  EXPECT_TRUE(Engine.hasErrors());
  Engine.clear();
  EXPECT_FALSE(Engine.hasErrors());
  EXPECT_TRUE(Engine.all().empty());
}

TEST(Diagnostics, WarningsAloneAreNotErrors) {
  diffcode::java::DiagnosticsEngine Engine;
  Engine.warning({1, 1, 0}, "w");
  EXPECT_FALSE(Engine.hasErrors());
}

TEST(SourceLocation, ValidityAndString) {
  diffcode::java::SourceLocation Invalid;
  EXPECT_FALSE(Invalid.isValid());
  diffcode::java::SourceLocation Loc{12, 34, 100};
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:34");
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Parallel.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

TEST(ParallelFor, ExceptionRethrownOnCaller) {
  EXPECT_THROW(support::parallelFor(4, 256,
                                    [](std::size_t I) {
                                      if (I == 100)
                                        throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
}

TEST(ParallelFor, ExceptionMessageSurvives) {
  try {
    support::parallelFor(4, 64, [](std::size_t) {
      throw std::runtime_error("worker died at change 7");
    });
    FAIL() << "expected parallelFor to rethrow";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "worker died at change 7");
  }
}

TEST(ParallelFor, SerialPathPropagatesException) {
  EXPECT_THROW(support::parallelFor(1, 16,
                                    [](std::size_t) {
                                      throw std::runtime_error("serial boom");
                                    }),
               std::runtime_error);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  // {requested threads, N}: the loop runs min(threads, N) threads, and an
  // empty loop starts none.
  const std::pair<unsigned, std::size_t> Cases[] = {
      {1, 1000}, {2, 1000}, {8, 1000}, {8, 3}, {4, 0}};
  for (auto [Threads, N] : Cases) {
    std::vector<std::atomic<unsigned>> Runs(N);
    support::LoopStats Stats;
    support::parallelFor(
        Threads, N,
        [&](std::size_t I) {
          Runs[I].fetch_add(1, std::memory_order_relaxed);
        },
        &Stats);
    for (std::size_t I = 0; I < N; ++I)
      EXPECT_EQ(Runs[I].load(), 1u) << "index " << I << " at " << Threads;
    unsigned Expected =
        static_cast<unsigned>(std::min<std::size_t>(Threads, N));
    EXPECT_EQ(Stats.Threads, Expected) << Threads << " threads, N = " << N;
    EXPECT_EQ(Stats.Claims, N) << Threads << " threads";
    EXPECT_EQ(Stats.WorkerBusyNs.size(), Expected) << Threads << " threads";
  }
}

TEST(ParallelFor, FirstErrorSkipsUnclaimedIndices) {
  // Every index throws, so each of the four threads fails its first claim
  // and then observes the abort flag: far fewer than N bodies may run.
  std::atomic<unsigned> Calls{0};
  EXPECT_THROW(support::parallelFor(4, 10000,
                                    [&](std::size_t) {
                                      Calls.fetch_add(1);
                                      throw std::runtime_error("every");
                                    }),
               std::runtime_error);
  EXPECT_LE(Calls.load(), 4u);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(FaultInjection, NoPlanNeverFires) {
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 1));
  support::FaultPlan Disabled; // Rate defaults to 0.
  support::FaultScope Scope(&Disabled, 5);
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 1));
}

TEST(FaultInjection, RateOneAlwaysFires) {
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  support::FaultScope Scope(&Plan, 0);
  for (std::uint64_t Key = 0; Key < 64; ++Key)
    EXPECT_TRUE(support::faultPoint(support::FaultSite::Interpreter, Key));
}

TEST(FaultInjection, PatternIsDeterministicAndSeedDependent) {
  support::FaultPlan Plan;
  Plan.Seed = 1234;
  Plan.Rate = 0.5;
  auto Draw = [&Plan](std::uint64_t ScopeKey) {
    support::FaultScope Scope(&Plan, ScopeKey);
    std::vector<char> Fired;
    for (std::uint64_t Key = 0; Key < 400; ++Key)
      Fired.push_back(
          support::faultPoint(support::FaultSite::Hungarian, Key) ? 1 : 0);
    return Fired;
  };
  std::vector<char> A = Draw(42), B = Draw(42), C = Draw(43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C); // a different work unit faults differently
  std::size_t Count = std::count(A.begin(), A.end(), 1);
  EXPECT_GT(Count, 100u); // ~200 expected at rate 0.5
  EXPECT_LT(Count, 300u);
}

TEST(FaultInjection, SiteMaskGates) {
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Clustering);
  support::FaultScope Scope(&Plan, 9);
  EXPECT_TRUE(support::faultPoint(support::FaultSite::Clustering, 1));
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 1));
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Hungarian, 1));
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Interpreter, 1));
}

TEST(FaultInjection, ScopesNestAndRestore) {
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 0));
  {
    support::FaultScope Outer(&Plan, 1);
    EXPECT_TRUE(support::faultPoint(support::FaultSite::Parser, 0));
    {
      support::FaultScope Inner(nullptr, 2);
      EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 0));
    }
    EXPECT_TRUE(support::faultPoint(support::FaultSite::Parser, 0));
  }
  EXPECT_FALSE(support::faultPoint(support::FaultSite::Parser, 0));
}

TEST(FaultInjection, ThrowIfFaultThrowsTypedError) {
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  support::FaultScope Scope(&Plan, 3);
  try {
    support::throwIfFault(support::FaultSite::Hungarian, 77);
    FAIL() << "expected FaultInjected";
  } catch (const support::FaultInjected &E) {
    EXPECT_EQ(E.Site, support::FaultSite::Hungarian);
    EXPECT_NE(std::string(E.what()).find("hungarian"), std::string::npos);
  }
}

TEST(ParallelFor, ThreadsInheritFaultContext) {
  // The campaign is installed on the caller; the threads parallelFor
  // starts must run under it, otherwise fault decisions would depend on
  // which thread claims an index. Each of the first four bodies waits for
  // the other three, so every thread runs one of them (the caller alone
  // would otherwise claim every cheap index before the others start).
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  support::FaultScope Scope(&Plan, 11);
  constexpr unsigned Threads = 4;
  std::atomic<unsigned> Arrived{0};
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<char> Fired(512, 0);
  support::parallelFor(Threads, Fired.size(), [&](std::size_t I) {
    if (I < Threads) {
      Arrived.fetch_add(1);
      while (Arrived.load() < Threads &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
    }
    Fired[I] = support::faultPoint(support::FaultSite::Hungarian, I) ? 1 : 0;
  });
  for (std::size_t I = 0; I < Fired.size(); ++I)
    EXPECT_EQ(Fired[I], 1) << "index " << I;
}
