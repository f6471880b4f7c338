//===- tests/test_metrics.cpp - Observability layer unit tests -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
// Unit coverage for obs/: histogram bucket edges, counter saturation,
// registry semantics under an 8-thread race (mirroring
// test_interner.cpp's ConcurrentInterningIsStructural), span/tracer
// behaviour, and — through the real CLI binary — that --trace-out
// produces structurally valid Chrome trace_event JSON.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "obs/Observer.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace diffcode;
using namespace diffcode::obs;

namespace {

//===----------------------------------------------------------------------===//
// Histogram buckets
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketEdges) {
  // Bucket 0 is exactly {0}; bucket I >= 1 covers [2^(I-1), 2^I - 1].
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);

  for (unsigned I = 1; I < Histogram::NumBuckets; ++I) {
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketLo(I)), I) << I;
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketHi(I)), I) << I;
    if (I + 1 < Histogram::NumBuckets)
      EXPECT_EQ(Histogram::bucketHi(I) + 1, Histogram::bucketLo(I + 1)) << I;
  }
  EXPECT_EQ(Histogram::bucketLo(0), 0u);
  EXPECT_EQ(Histogram::bucketHi(0), 0u);
  EXPECT_EQ(Histogram::bucketHi(Histogram::NumBuckets - 1), ~std::uint64_t(0));
  EXPECT_EQ(Histogram::bucketFor(~std::uint64_t(0)),
            Histogram::NumBuckets - 1);
}

TEST(Histogram, RecordAggregates) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // empty histogram reports 0, not UINT64_MAX

  for (std::uint64_t V : {0ull, 1ull, 2ull, 3ull, 1024ull})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1030u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1024u);
  EXPECT_EQ(H.bucketCount(0), 1u); // 0
  EXPECT_EQ(H.bucketCount(1), 1u); // 1
  EXPECT_EQ(H.bucketCount(2), 2u); // 2, 3
  EXPECT_EQ(H.bucketCount(11), 1u); // 1024 = 2^10
}

TEST(Histogram, SumSaturates) {
  Histogram H;
  H.record(~std::uint64_t(0));
  H.record(~std::uint64_t(0));
  EXPECT_EQ(H.sum(), ~std::uint64_t(0)); // pinned, not wrapped
  EXPECT_EQ(H.count(), 2u);
}

//===----------------------------------------------------------------------===//
// Counter
//===----------------------------------------------------------------------===//

TEST(Counter, AddAndSaturate) {
  Counter C;
  C.add();
  C.add(41);
  EXPECT_EQ(C.get(), 42u);
  C.add(~std::uint64_t(0) - 10);
  EXPECT_EQ(C.get(), ~std::uint64_t(0)); // saturated at the max
  C.add(7);
  EXPECT_EQ(C.get(), ~std::uint64_t(0)); // stays pinned
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Registry, GetOrCreateIsStable) {
  Registry R;
  Counter &A = R.counter("a");
  Counter &B = R.counter("a");
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(R.size(), 1u);
  Histogram &H = R.histogram("h");
  H.record(3);
  EXPECT_EQ(&H, &R.histogram("h"));
  EXPECT_EQ(R.size(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  Registry R;
  R.counter("x");
  R.histogram("y");
  EXPECT_THROW(R.histogram("x"), std::logic_error);
  EXPECT_THROW(R.counter("y"), std::logic_error);
  EXPECT_EQ(R.size(), 2u);
}

TEST(Registry, SnapshotIsNameSorted) {
  Registry R;
  R.counter("zeta").add(1);
  R.counter("alpha").add(2);
  R.histogram("mid").record(5);
  Snapshot S = R.snapshot();
  ASSERT_EQ(S.Values.size(), 3u);
  EXPECT_EQ(S.Values[0].Name, "alpha");
  EXPECT_EQ(S.Values[1].Name, "mid");
  EXPECT_EQ(S.Values[2].Name, "zeta");
}

TEST(Registry, DeterministicOnlyJsonDropsPerRun) {
  Registry R;
  R.counter("stable").add(1);
  R.counter("wall", Unit::Nanoseconds, Stability::PerRun).add(12345);
  std::string Full = R.snapshot().json(/*DeterministicOnly=*/false);
  std::string Det = R.snapshot().json(/*DeterministicOnly=*/true);
  EXPECT_NE(Full.find("\"wall\""), std::string::npos);
  EXPECT_EQ(Det.find("\"wall\""), std::string::npos);
  EXPECT_NE(Det.find("\"stable\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Snapshot::merge (cross-process metric folding)
//===----------------------------------------------------------------------===//

TEST(SnapshotMerge, CombinesPerKind) {
  Registry Dst, Src;
  Dst.counter("changes").add(10);
  Src.counter("changes").add(32);
  Dst.histogram("lat").record(4);
  Src.histogram("lat").record(1024);
  Src.counter("only.src").add(5);
  Dst.counter("only.dst").add(6);
  // An empty side never drags the merged min to its 0-when-empty.
  Dst.histogram("idle.dst");
  Src.histogram("idle.dst").record(9);
  Dst.histogram("idle.src").record(5);
  Src.histogram("idle.src");

  Snapshot S = Dst.snapshot();
  ASSERT_TRUE(S.merge(Src.snapshot()));
  ASSERT_EQ(S.Values.size(), 6u);
  // Counters sum, histograms fold bucket-wise; entries unique to either
  // side survive as-is.
  auto Find = [&S](const char *Name) -> const MetricValue & {
    for (const MetricValue &V : S.Values)
      if (V.Name == Name)
        return V;
    static MetricValue Missing;
    return Missing;
  };
  EXPECT_EQ(Find("changes").Count, 42u);
  EXPECT_EQ(Find("lat").Count, 2u);
  EXPECT_EQ(Find("lat").Sum, 1028u);
  EXPECT_EQ(Find("lat").Min, 4u);
  EXPECT_EQ(Find("lat").Max, 1024u);
  ASSERT_EQ(Find("lat").Buckets.size(), 2u);
  EXPECT_EQ(Find("lat").Buckets[0].first, 3u);  // 4
  EXPECT_EQ(Find("lat").Buckets[1].first, 11u); // 1024
  EXPECT_EQ(Find("only.src").Count, 5u);
  EXPECT_EQ(Find("only.dst").Count, 6u);
  EXPECT_EQ(Find("idle.dst").Count, 1u);
  EXPECT_EQ(Find("idle.dst").Min, 9u);
  EXPECT_EQ(Find("idle.src").Count, 1u);
  EXPECT_EQ(Find("idle.src").Min, 5u);
}

TEST(SnapshotMerge, CounterAndHistogramSumsSaturate) {
  Registry Dst, Src;
  Dst.counter("c").add(~std::uint64_t(0) - 1);
  Src.counter("c").add(10);
  Dst.histogram("h").record(~std::uint64_t(0));
  Src.histogram("h").record(2);
  Snapshot S = Dst.snapshot();
  ASSERT_TRUE(S.merge(Src.snapshot()));
  EXPECT_EQ(S.Values[0].Count, ~std::uint64_t(0)); // pinned, not wrapped
  EXPECT_EQ(S.Values[1].Sum, ~std::uint64_t(0));
  EXPECT_EQ(S.Values[1].Count, 2u);
}

TEST(SnapshotMerge, KindMismatchRejectsWholeMergeUntouched) {
  Registry Dst, Src;
  Dst.counter("aaa").add(1);
  Dst.counter("clash").add(2);
  Src.counter("aaa").add(100);     // would merge fine...
  Src.histogram("clash").record(3); // ...but this one disagrees on kind
  Snapshot S = Dst.snapshot();
  std::string Before = S.json();
  EXPECT_FALSE(S.merge(Src.snapshot()));
  EXPECT_EQ(S.json(), Before); // validate-then-merge: nothing applied
}

TEST(SnapshotMerge, PrefixPreservesNameOrder) {
  Registry Dst, Src;
  Dst.counter("alpha").add(1);
  Dst.counter("zeta").add(1);
  Src.counter("beta").add(2);
  Src.counter("gamma").add(3);
  Snapshot S = Dst.snapshot();
  ASSERT_TRUE(S.merge(Src.snapshot(), "exec.worker."));
  ASSERT_EQ(S.Values.size(), 4u);
  EXPECT_EQ(S.Values[0].Name, "alpha");
  EXPECT_EQ(S.Values[1].Name, "exec.worker.beta");
  EXPECT_EQ(S.Values[2].Name, "exec.worker.gamma");
  EXPECT_EQ(S.Values[3].Name, "zeta");
  for (std::size_t I = 1; I < S.Values.size(); ++I)
    EXPECT_LT(S.Values[I - 1].Name, S.Values[I].Name);
  // Prefixed names never collide with the originals, so merging the
  // same worker snapshot under a prefix twice doubles the counts.
  ASSERT_TRUE(S.merge(Src.snapshot(), "exec.worker."));
  EXPECT_EQ(S.Values[1].Count, 4u);
  EXPECT_EQ(S.Values[2].Count, 6u);
}

TEST(SnapshotMerge, MarkAllPerRunDemotesStability) {
  Registry R;
  R.counter("det").add(1);
  R.counter("wall", Unit::Nanoseconds, Stability::PerRun).add(2);
  Snapshot S = R.snapshot();
  S.markAllPerRun();
  for (const MetricValue &V : S.Values)
    EXPECT_EQ(V.S, Stability::PerRun) << V.Name;
  EXPECT_EQ(S.json(/*DeterministicOnly=*/true), "[]");
}

// Mirrors test_interner.cpp's concurrent-interning race: 8 threads hammer
// an overlapping metric vocabulary; every get-or-create must resolve to
// the same object and the final counts must be exact.
TEST(Registry, EightThreadRace) {
  Registry R;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Rounds = 200;
  const std::vector<std::string> Names = {"alpha", "beta", "gamma", "delta",
                                          "epsilon"};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < Rounds; ++I) {
        // Each thread touches every name each round, from a different
        // starting offset so creations genuinely race.
        for (std::size_t J = 0; J < Names.size(); ++J) {
          const std::string &Name = Names[(T + J) % Names.size()];
          R.counter("c." + Name).add(1);
          R.histogram("h." + Name).record(I);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(R.size(), 2 * Names.size());
  for (const std::string &Name : Names) {
    EXPECT_EQ(R.counter("c." + Name).get(), NumThreads * Rounds) << Name;
    EXPECT_EQ(R.histogram("h." + Name).count(), NumThreads * Rounds) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Tracer / Span
//===----------------------------------------------------------------------===//

TEST(Tracer, SpansAggregate) {
  Tracer T;
  {
    Span A(&T, "outer");
    Span B(&T, "inner");
  }
  { Span C(&T, "inner"); }
  EXPECT_EQ(T.eventCount(), 3u);

  std::vector<Tracer::StageTotal> Stages = T.aggregate();
  ASSERT_EQ(Stages.size(), 2u);
  EXPECT_EQ(Stages[0].Name, "inner"); // name-sorted
  EXPECT_EQ(Stages[0].Spans, 2u);
  EXPECT_EQ(Stages[1].Name, "outer");
  EXPECT_EQ(Stages[1].Spans, 1u);
}

TEST(Tracer, NullTracerSpanIsNoOp) {
  // The off-by-default contract: a null tracer must be safe and free.
  Span S(nullptr, "nothing");
}

TEST(Tracer, RecordForeignStitchesOtherProcesses) {
  Tracer T;
  { Span A(&T, "local"); }
  // A worker's spans arrive with their own tid and pid; the name is
  // interned by the tracer (the worker's string dies with the frame).
  {
    std::string Transient = "worker-span";
    T.recordForeign(Transient, 500, 100, 3, 4242);
    Transient.assign(64, 'x'); // must not affect the recorded name
  }
  T.recordForeign("worker-span", 700, 50, 3, 4242);
  EXPECT_EQ(T.eventCount(), 3u);

  // events() copies everything in record order — the worker-side
  // shipping primitive.
  std::vector<Tracer::Event> Events = T.events();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_STREQ(Events[1].Name, "worker-span");
  EXPECT_EQ(Events[1].StartNs, 500u);
  EXPECT_EQ(Events[1].DurNs, 100u);
  EXPECT_EQ(Events[1].Tid, 3u);
  EXPECT_EQ(Events[1].Pid, 4242u);

  // Foreign spans aggregate alongside local ones.
  std::vector<Tracer::StageTotal> Stages = T.aggregate();
  ASSERT_EQ(Stages.size(), 2u);
  EXPECT_EQ(Stages[1].Name, "worker-span");
  EXPECT_EQ(Stages[1].Spans, 2u);
}

TEST(Tracer, SharedEpochPutsTracersOnOneTimeline) {
  // A tracer built on another's epoch stamps its events on that
  // tracer's timeline — what a forked worker relies on to ship spans
  // its coordinator ingests as they are.
  Tracer First;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Tracer Second(First.epoch());
  EXPECT_EQ(Second.epoch(), First.epoch());
  std::uint64_t Before = First.now();
  { Span S(&Second, "unit"); }
  std::uint64_t After = First.now();
  std::vector<Tracer::Event> Events = Second.events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_GE(Events[0].StartNs, Before);
  EXPECT_LE(Events[0].StartNs + Events[0].DurNs, After);
  // A tracer on its own epoch starts its timeline at its construction.
  Tracer Own;
  EXPECT_LT(Own.now(), First.now());
}

//===----------------------------------------------------------------------===//
// JSON validation (shared by the trace-schema and CLI tests)
//===----------------------------------------------------------------------===//

/// Minimal recursive-descent JSON syntax checker — enough to assert a
/// document is well-formed RFC 8259 JSON without depending on a parser
/// library.
class JsonChecker {
public:
  explicit JsonChecker(std::string_view Text) : S(Text) {}

  bool valid() {
    bool Ok = value();
    ws();
    return Ok && P == S.size();
  }

private:
  void ws() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\t' || S[P] == '\n' ||
                            S[P] == '\r'))
      ++P;
  }
  bool lit(std::string_view L) {
    if (S.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }
  bool string() {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\') {
        ++P;
        if (P >= S.size())
          return false;
        if (S[P] == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++P >= S.size() || !std::isxdigit(static_cast<unsigned char>(S[P])))
              return false;
        }
      }
      ++P;
    }
    if (P >= S.size())
      return false;
    ++P; // closing quote
    return true;
  }
  bool number() {
    std::size_t Start = P;
    if (P < S.size() && S[P] == '-')
      ++P;
    while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
      ++P;
    if (P == Start || (S[Start] == '-' && P == Start + 1))
      return false;
    if (P < S.size() && S[P] == '.') {
      ++P;
      if (P >= S.size() || !std::isdigit(static_cast<unsigned char>(S[P])))
        return false;
      while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
        ++P;
    }
    if (P < S.size() && (S[P] == 'e' || S[P] == 'E')) {
      ++P;
      if (P < S.size() && (S[P] == '+' || S[P] == '-'))
        ++P;
      if (P >= S.size() || !std::isdigit(static_cast<unsigned char>(S[P])))
        return false;
      while (P < S.size() && std::isdigit(static_cast<unsigned char>(S[P])))
        ++P;
    }
    return true;
  }
  bool value() {
    ws();
    if (P >= S.size())
      return false;
    switch (S[P]) {
    case '{': {
      ++P;
      ws();
      if (P < S.size() && S[P] == '}') {
        ++P;
        return true;
      }
      while (true) {
        ws();
        if (!string())
          return false;
        ws();
        if (P >= S.size() || S[P] != ':')
          return false;
        ++P;
        if (!value())
          return false;
        ws();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        break;
      }
      ws();
      if (P >= S.size() || S[P] != '}')
        return false;
      ++P;
      return true;
    }
    case '[': {
      ++P;
      ws();
      if (P < S.size() && S[P] == ']') {
        ++P;
        return true;
      }
      while (true) {
        if (!value())
          return false;
        ws();
        if (P < S.size() && S[P] == ',') {
          ++P;
          continue;
        }
        break;
      }
      ws();
      if (P >= S.size() || S[P] != ']')
        return false;
      ++P;
      return true;
    }
    case '"':
      return string();
    case 't':
      return lit("true");
    case 'f':
      return lit("false");
    case 'n':
      return lit("null");
    default:
      return number();
    }
  }

  std::string_view S;
  std::size_t P = 0;
};

std::size_t countOccurrences(const std::string &Haystack,
                             const std::string &Needle) {
  std::size_t N = 0;
  for (std::size_t P = Haystack.find(Needle); P != std::string::npos;
       P = Haystack.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

/// Chrome trace_event structural checks: a document that
/// chrome://tracing / Perfetto would accept as complete "X" events.
void expectValidTraceEventJson(const std::string &Json) {
  EXPECT_TRUE(JsonChecker(Json).valid());
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Every event is a complete-phase event carrying the full field set.
  std::size_t Events = countOccurrences(Json, "\"ph\":\"X\"");
  EXPECT_GT(Events, 0u);
  EXPECT_EQ(countOccurrences(Json, "\"cat\":\"diffcode\""), Events);
  EXPECT_EQ(countOccurrences(Json, "\"name\":"), Events);
  EXPECT_EQ(countOccurrences(Json, "\"ts\":"), Events);
  EXPECT_EQ(countOccurrences(Json, "\"dur\":"), Events);
  EXPECT_EQ(countOccurrences(Json, "\"pid\":"), Events);
  EXPECT_EQ(countOccurrences(Json, "\"tid\":"), Events);
}

TEST(Tracer, TraceJsonSchema) {
  Tracer T;
  {
    Span A(&T, "alpha");
    Span B(&T, "beta");
  }
  expectValidTraceEventJson(T.traceJson());
}

TEST(Tracer, TraceJsonSeparatesPidLanes) {
  Tracer T;
  { Span A(&T, "coordinator"); }
  T.recordForeign("worker", 10, 5, 1, 1111);
  T.recordForeign("worker", 20, 5, 1, 2222);
  std::string Json = T.traceJson();
  expectValidTraceEventJson(Json);
  // Two foreign lanes plus the recording process's own.
  EXPECT_NE(Json.find("\"pid\":1111"), std::string::npos);
  EXPECT_NE(Json.find("\"pid\":2222"), std::string::npos);
  EXPECT_EQ(countOccurrences(Json, "\"pid\":"), 3u);
}

TEST(Snapshot, JsonIsWellFormed) {
  Registry R;
  R.counter("c", Unit::Bytes).add(7);
  Histogram &H = R.histogram("h", Unit::Nanoseconds, Stability::PerRun);
  H.record(0);
  H.record(300);
  EXPECT_TRUE(JsonChecker(R.snapshot().json(false)).valid());
  EXPECT_TRUE(JsonChecker(R.snapshot().json(true)).valid());
}

//===----------------------------------------------------------------------===//
// Worst-offender determinism (satellite: tie-breaking unit test)
//===----------------------------------------------------------------------===//

TEST(CorpusHealth, WorstOffenderTieBreaking) {
  core::CorpusReport Report;
  auto AddRecord = [&Report](const char *Origin, std::uint64_t Steps,
                             core::ChangeStatus Status) {
    core::ChangeRecord R;
    R.Origin = Origin;
    R.StepsUsed = Steps;
    R.Status = Status;
    Report.Changes.push_back(std::move(R));
  };
  // Equal step counts must order by origin ascending, regardless of the
  // record order they arrive in.
  AddRecord("proj-b/c0002", 100, core::ChangeStatus::Ok);
  AddRecord("proj-a/c0001", 100, core::ChangeStatus::Degraded);
  AddRecord("proj-c/c0003", 500, core::ChangeStatus::BudgetExceeded);
  AddRecord("proj-d/c0004", 0, core::ChangeStatus::Ok); // no steps: excluded

  core::computeCorpusHealth(Report);
  ASSERT_EQ(Report.Health.WorstOffenders.size(), 3u);
  EXPECT_EQ(Report.Health.WorstOffenders[0].Origin, "proj-c/c0003");
  EXPECT_EQ(Report.Health.WorstOffenders[0].Status,
            core::ChangeStatus::BudgetExceeded);
  EXPECT_EQ(Report.Health.WorstOffenders[1].Origin, "proj-a/c0001");
  EXPECT_EQ(Report.Health.WorstOffenders[1].Status,
            core::ChangeStatus::Degraded);
  EXPECT_EQ(Report.Health.WorstOffenders[2].Origin, "proj-b/c0002");

  // Shuffling the input records must not change the table.
  std::swap(Report.Changes[0], Report.Changes[2]);
  auto Before = Report.Health.WorstOffenders;
  core::computeCorpusHealth(Report);
  ASSERT_EQ(Report.Health.WorstOffenders.size(), Before.size());
  for (std::size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ(Report.Health.WorstOffenders[I].Origin, Before[I].Origin);
    EXPECT_EQ(Report.Health.WorstOffenders[I].Steps, Before[I].Steps);
  }
}

TEST(CorpusHealth, WorstOffenderTiesKeepRecordOrder) {
  // Every file of a commit shares its origin, so records of one commit
  // can tie on (steps, origin) while their statuses differ. Ties must
  // come out in record order. 40 records is past libstdc++'s 16-element
  // insertion-sort cutoff, where an unstable sort moves equal elements.
  core::CorpusReport Report;
  for (std::uint64_t I = 0; I < 40; ++I) {
    core::ChangeRecord R;
    R.Origin = "proj-a@c7";
    R.StepsUsed = 100;
    R.Status = static_cast<core::ChangeStatus>(I % 3);
    R.WallNanos = I; // tags the record
    Report.Changes.push_back(std::move(R));
  }
  core::computeCorpusHealth(Report, Report.Changes.size());
  ASSERT_EQ(Report.Health.WorstOffenders.size(), 40u);
  for (std::uint64_t I = 0; I < 40; ++I) {
    EXPECT_EQ(Report.Health.WorstOffenders[I].WallNanos, I);
    EXPECT_EQ(Report.Health.WorstOffenders[I].Status,
              Report.Changes[I].Status);
  }

  // The default five-row table is the first five records.
  core::computeCorpusHealth(Report);
  ASSERT_EQ(Report.Health.WorstOffenders.size(), 5u);
  for (std::uint64_t I = 0; I < 5; ++I)
    EXPECT_EQ(Report.Health.WorstOffenders[I].WallNanos, I);
}

namespace {

/// Field-by-field CorpusHealth equality, with the first difference named.
::testing::AssertionResult sameHealth(const core::CorpusHealth &A,
                                      const core::CorpusHealth &B) {
  if (A.StatusCounts != B.StatusCounts)
    return ::testing::AssertionFailure() << "status counts differ";
  if (A.ClusteringFailures != B.ClusteringFailures)
    return ::testing::AssertionFailure() << "clustering failures differ";
  if (A.WorstOffenders.size() != B.WorstOffenders.size())
    return ::testing::AssertionFailure()
           << A.WorstOffenders.size() << " offenders vs "
           << B.WorstOffenders.size();
  for (std::size_t I = 0; I < A.WorstOffenders.size(); ++I) {
    const core::WorstOffender &X = A.WorstOffenders[I];
    const core::WorstOffender &Y = B.WorstOffenders[I];
    if (X.Origin != Y.Origin || X.Steps != Y.Steps || X.Status != Y.Status ||
        X.WallNanos != Y.WallNanos)
      return ::testing::AssertionFailure() << "offender " << I << " differs";
  }
  return ::testing::AssertionSuccess();
}

} // namespace

TEST(CorpusHealth, TallyExtendedInChunksEqualsRecount) {
  // Records of one commit share an origin; equal step counts recur across
  // origins; two records use no steps; and with five offenders the fifth
  // place is a tie on (steps, origin) between records 1, 4 and 11 that
  // only the record index breaks. WallNanos tags each record.
  struct Row {
    const char *Origin;
    std::uint64_t Steps;
    core::ChangeStatus Status;
  };
  const Row Rows[] = {
      {"p-a@c1", 100, core::ChangeStatus::Ok},
      {"p-a@c1", 100, core::ChangeStatus::Degraded},
      {"p-b@c2", 0, core::ChangeStatus::ParseError},
      {"p-c@c3", 250, core::ChangeStatus::BudgetExceeded},
      {"p-a@c1", 100, core::ChangeStatus::Ok},
      {"p-d@c4", 40, core::ChangeStatus::Ok},
      {"p-b@c2", 100, core::ChangeStatus::AnalysisThrow},
      {"p-e@c5", 0, core::ChangeStatus::Ok},
      {"p-0@c0", 100, core::ChangeStatus::Ok},
      {"p-c@c3", 250, core::ChangeStatus::Ok},
      {"p-f@c6", 40, core::ChangeStatus::Degraded},
      {"p-a@c1", 100, core::ChangeStatus::Ok},
  };
  const std::size_t N = std::size(Rows);
  core::CorpusReport Full;
  for (std::size_t I = 0; I < N; ++I) {
    core::ChangeRecord R;
    R.Origin = Rows[I].Origin;
    R.StepsUsed = Rows[I].Steps;
    R.Status = Rows[I].Status;
    R.WallNanos = I;
    Full.Changes.push_back(std::move(R));
  }
  // One failed class, which health() recounts from the report.
  Full.PerClass.resize(2);
  Full.PerClass[1].ClusteringError = "injected";

  core::computeCorpusHealth(Full);
  ASSERT_EQ(Full.Health.WorstOffenders.size(), 5u);
  EXPECT_EQ(Full.Health.WorstOffenders[4].WallNanos, 1u);
  EXPECT_EQ(Full.Health.ClusteringFailures, 1u);

  for (std::size_t MaxOffenders : {std::size_t(0), std::size_t(1),
                                   std::size_t(5), N + 3}) {
    // Every split into contiguous chunks; bit I set: a chunk ends after
    // record I. After each chunk the tally must equal a recount of the
    // prefix.
    for (std::uint32_t Mask = 0; Mask < (1u << (N - 1)); ++Mask) {
      core::HealthTally Tally(MaxOffenders);
      core::CorpusReport Prefix;
      Prefix.PerClass = Full.PerClass;
      for (std::size_t I = 0; I < N; ++I) {
        Prefix.Changes.push_back(Full.Changes[I]);
        if (I + 1 < N && !(Mask >> I & 1u))
          continue;
        Tally.extend(Prefix.Changes);
        core::CorpusReport Recount = Prefix;
        core::computeCorpusHealth(Recount, MaxOffenders);
        ASSERT_TRUE(sameHealth(Tally.health(Prefix), Recount.Health))
            << "max " << MaxOffenders << " mask " << Mask << " after "
            << I;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// CLI --trace-out smoke test (tier1)
//===----------------------------------------------------------------------===//

TEST(CliTrace, TraceOutSchema) {
  const std::string TracePath =
      testing::TempDir() + "diffcode_cli_trace_test.json";
  std::remove(TracePath.c_str());
  std::string Cmd = std::string(DIFFCODE_CLI_PATH) + " pipeline " +
                    DIFFCODE_SMOKE_CORPUS + " --metrics --trace-out=" +
                    TracePath + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  std::ifstream In(TracePath);
  ASSERT_TRUE(In.good()) << TracePath;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Json = Buffer.str();
  while (!Json.empty() && (Json.back() == '\n' || Json.back() == '\r'))
    Json.pop_back();
  ASSERT_FALSE(Json.empty());
  expectValidTraceEventJson(Json);

  // The pipeline's stage spans must all be present.
  for (const char *Stage :
       {"pipeline", "analyzeChanges", "filterClass", "computeCorpusHealth",
        "processChange"})
    EXPECT_NE(Json.find(std::string("\"name\":\"") + Stage + "\""),
              std::string::npos)
        << Stage;
  std::remove(TracePath.c_str());
}

/// Every numeric value following \p Key in \p Json, in document order.
std::vector<double> numbersAfterKey(const std::string &Json,
                                    const std::string &Key) {
  std::vector<double> Out;
  for (std::size_t P = Json.find(Key); P != std::string::npos;
       P = Json.find(Key, P + Key.size()))
    Out.push_back(std::strtod(Json.c_str() + P + Key.size(), nullptr));
  return Out;
}

TEST(CliTrace, SupervisedTraceStitchesWorkerLanes) {
  const std::string TracePath =
      testing::TempDir() + "diffcode_cli_supervised_trace.json";
  std::remove(TracePath.c_str());
  std::string Cmd = std::string(DIFFCODE_CLI_PATH) + " pipeline " +
                    DIFFCODE_SMOKE_CORPUS +
                    " --workers 2 --metrics --trace-out=" + TracePath +
                    " > /dev/null 2>&1";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  std::ifstream In(TracePath);
  ASSERT_TRUE(In.good()) << TracePath;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Json = Buffer.str();
  while (!Json.empty() && (Json.back() == '\n' || Json.back() == '\r'))
    Json.pop_back();
  expectValidTraceEventJson(Json);

  // Worker spans land on their own pid lanes next to the coordinator's.
  std::vector<double> Pids = numbersAfterKey(Json, "\"pid\":");
  std::sort(Pids.begin(), Pids.end());
  Pids.erase(std::unique(Pids.begin(), Pids.end()), Pids.end());
  EXPECT_GE(Pids.size(), 2u) << Json.substr(0, 400);

  // The per-change spans now come from the workers.
  EXPECT_NE(Json.find("\"name\":\"processChange\""), std::string::npos);
  // The coordinator's own stage spans are still there. (Whether worker
  // spans land on the coordinator's timeline is
  // SupervisedExec.WorkerSpansLieInsideAnalyzeChanges.)
  EXPECT_NE(Json.find("\"name\":\"pipeline\""), std::string::npos);
  std::remove(TracePath.c_str());
}

TEST(CliTrace, SupervisedMetricsCarryWorkerNamespace) {
  const std::string OutPath =
      testing::TempDir() + "diffcode_cli_supervised_metrics.json";
  std::string Cmd = std::string(DIFFCODE_CLI_PATH) + " pipeline " +
                    DIFFCODE_SMOKE_CORPUS +
                    " --workers 2 --metrics --json > " + OutPath +
                    " 2>/dev/null";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  std::ifstream In(OutPath);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Json = Buffer.str();
  while (!Json.empty() && (Json.back() == '\n' || Json.back() == '\r'))
    Json.pop_back();
  EXPECT_TRUE(JsonChecker(Json).valid());
  // Worker registries were shipped over the wire and merged under the
  // exec.worker.* namespace; the transport itself is counted too.
  EXPECT_NE(Json.find("\"exec.worker."), std::string::npos);
  EXPECT_NE(Json.find("\"exec.telemetry_frames\""), std::string::npos);
  std::remove(OutPath.c_str());
}

TEST(CliTrace, JsonReportCarriesMetricsBlock) {
  const std::string OutPath =
      testing::TempDir() + "diffcode_cli_metrics_report.json";
  std::string Cmd = std::string(DIFFCODE_CLI_PATH) + " pipeline " +
                    DIFFCODE_SMOKE_CORPUS + " --metrics --json > " + OutPath +
                    " 2>/dev/null";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  std::ifstream In(OutPath);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Json = Buffer.str();
  while (!Json.empty() && (Json.back() == '\n' || Json.back() == '\r'))
    Json.pop_back();
  EXPECT_TRUE(JsonChecker(Json).valid());
  EXPECT_NE(Json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(Json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(Json.find("\"counters\":["), std::string::npos);
  std::remove(OutPath.c_str());
}

} // namespace
