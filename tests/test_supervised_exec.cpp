//===- tests/test_supervised_exec.cpp - Supervised execution differential -===//
//
// The byte-identity contract of the supervised engine: with no faults
// firing, a report produced by forked worker subprocesses is
// byte-identical to the in-process engine's, at every worker count and
// batch size. Also covers the supervision bookkeeping (SupervisionStats
// on a clean run), the DiffCode::run dispatch, edge cases (empty
// corpus, more workers than units), and the CLI surface (--workers,
// --fail-on-degraded).
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "exec/Supervisor.h"
#include "obs/Observer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Shared corpus + in-process baseline, built once for the whole suite.
struct Env {
  corpus::Corpus C;
  std::vector<const corpus::CodeChange *> Mined;
  CorpusReport Baseline;
  std::string BaselineJson;
};

const Env &env() {
  static Env *E = [] {
    Env *Out = new Env;
    corpus::CorpusOptions Opts;
    Opts.Seed = 61;
    Opts.NumProjects = 8;
    Out->C = corpus::CorpusGenerator(Opts).generate();
    corpus::Miner M(api());
    Out->Mined = M.mine(Out->C);
    Out->Baseline = DiffCode(api()).run(
        {.Changes = Out->Mined, .TargetClasses = api().targetClasses()});
    Out->BaselineJson = corpusReportToJson(Out->Baseline);
    return Out;
  }();
  return *E;
}

CorpusReport runSupervised(unsigned Workers, std::size_t BatchSize) {
  ExecutionPolicy Exec;
  Exec.Mode = ExecutionMode::Supervised;
  Exec.Workers = Workers;
  Exec.BatchSize = BatchSize;
  DiffCode System(api());
  return System.run({.Changes = env().Mined,
                     .TargetClasses = api().targetClasses(),
                     .Exec = Exec});
}

#ifdef DIFFCODE_CLI_PATH
std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

int runCli(const std::string &Args, const std::string &StdoutFile) {
  std::string Cmd = std::string(DIFFCODE_CLI_PATH) + " " + Args + " > " +
                    StdoutFile + " 2>/dev/null";
  int Rc = std::system(Cmd.c_str());
  return WIFEXITED(Rc) ? WEXITSTATUS(Rc) : -1;
}
#endif

} // namespace

TEST(SupervisedExec, ByteIdenticalAcrossWorkersAndBatchSizes) {
  for (unsigned Workers : {1u, 2u, 4u})
    for (std::size_t Batch : {std::size_t(1), std::size_t(3), std::size_t(8)})
      EXPECT_EQ(env().BaselineJson,
                corpusReportToJson(runSupervised(Workers, Batch)))
          << Workers << " workers, batch " << Batch;
}

TEST(SupervisedExec, WorkerStoresServeWhatInProcessStoresServe) {
  // Units hold whole file histories (none here is longer than the
  // default 32-change unit), so on a clean run the workers' stores
  // analyze and reuse exactly what the in-process stage's do, and every
  // metric the workers record sums, over the per-unit snapshots the
  // coordinator adopts, to its in-process twin.
  for (const std::vector<std::uint64_t> &History :
       fileHistories(env().Mined))
    ASSERT_LE(History.size(), 32u);
  DiffCode System(api());
  obs::Observer InProcObs;
  System.analyzeChanges({.Changes = env().Mined,
                         .TargetClasses = api().targetClasses(),
                         .Metrics = &InProcObs});
  const obs::Snapshot InProc = InProcObs.summarize().Metrics;
  auto find = [](const obs::Snapshot &S,
                 const std::string &Name) -> const obs::MetricValue * {
    for (const obs::MetricValue &V : S.Values)
      if (V.Name == Name)
        return &V;
    return nullptr;
  };
  const obs::MetricValue *Analyzed =
      find(InProc, "pipeline.versions_analyzed");
  const obs::MetricValue *Reused = find(InProc, "pipeline.versions_reused");
  ASSERT_TRUE(Analyzed && Reused);
  EXPECT_GT(Reused->Count, 0u);
  EXPECT_EQ(Analyzed->Count + Reused->Count, 2 * env().Mined.size());

  // Batch 1 splits file histories across units, so only the version
  // counts may differ there; everything else is recorded per change.
  struct Shape {
    unsigned Workers;
    std::size_t Batch;
  };
  for (Shape Run : {Shape{1, 32}, Shape{3, 32}, Shape{2, 1}}) {
    ExecutionPolicy Exec;
    Exec.Mode = ExecutionMode::Supervised;
    Exec.Workers = Run.Workers;
    Exec.BatchSize = Run.Batch;
    obs::Observer SupObs;
    exec::superviseChanges(System, {.Changes = env().Mined,
                                    .TargetClasses = api().targetClasses(),
                                    .Metrics = &SupObs,
                                    .Exec = Exec});
    const obs::Snapshot Sup = SupObs.summarize().Metrics;
    const std::string Prefix = "exec.worker.";
    std::size_t Compared = 0;
    for (const obs::MetricValue &W : Sup.Values) {
      if (!W.Name.starts_with(Prefix))
        continue;
      std::string Name = W.Name.substr(Prefix.size());
      SCOPED_TRACE(Name + ", " + std::to_string(Run.Workers) +
                   " workers, batch " + std::to_string(Run.Batch));
      const obs::MetricValue *In = find(InProc, Name);
      ASSERT_NE(In, nullptr);
      ++Compared;
      if (Run.Batch == 1 && Name.starts_with("pipeline.versions_"))
        continue;
      EXPECT_EQ(W.Kind, In->Kind);
      EXPECT_EQ(W.Count, In->Count);
      if (W.Kind == obs::MetricKind::Histogram) {
        EXPECT_EQ(W.Sum, In->Sum);
        EXPECT_EQ(W.Min, In->Min);
        EXPECT_EQ(W.Max, In->Max);
        EXPECT_EQ(W.Buckets, In->Buckets);
      }
    }
    // Every in-process metric but the loop's own has a worker twin.
    std::size_t Twins = 0;
    for (const obs::MetricValue &V : InProc.Values)
      Twins += !V.Name.starts_with("threadpool.");
    EXPECT_EQ(Compared, Twins)
        << Run.Workers << " workers, batch " << Run.Batch;
  }
}

TEST(SupervisedExec, CleanRunBookkeeping) {
  // Batch 0 packs one change per unit, exactly as batch 1 does.
  for (std::size_t BatchSize : {std::size_t(4), std::size_t(0)}) {
    exec::SupervisionStats Stats;
    ExecutionPolicy Exec;
    Exec.Mode = ExecutionMode::Supervised;
    Exec.Workers = 2;
    Exec.BatchSize = BatchSize;
    DiffCode System(api());
    std::vector<ChangeRecord> Records = exec::superviseChanges(
        System,
        {.Changes = env().Mined, .TargetClasses = api().targetClasses(),
         .Exec = Exec},
        &Stats);

    ASSERT_EQ(Records.size(), env().Mined.size()) << "batch " << BatchSize;
    // One unit per pack of whole file histories of at most B changes (a
    // longer history fills units of B); a clean run never retries,
    // bisects, restarts, kills, falls back inline, or stamps a terminal
    // status.
    const std::uint64_t N = env().Mined.size();
    const std::uint64_t B = std::max<std::uint64_t>(BatchSize, 1);
    std::uint64_t Units = 0, Open = 0;
    for (const std::vector<std::uint64_t> &History :
         fileHistories(env().Mined)) {
      if (Open + History.size() > B) {
        Units += Open > 0;
        Open = 0;
      }
      Units += (Open + History.size()) / B;
      Open = (Open + History.size()) % B;
    }
    Units += Open > 0;
    if (B == 1)
      EXPECT_EQ(Units, N);
    else
      EXPECT_GT(Units, (N + B - 1) / B) << "batch " << BatchSize;
    EXPECT_EQ(Stats.UnitsDispatched, Units) << "batch " << BatchSize;
    EXPECT_EQ(Stats.Retries, 0u);
    EXPECT_EQ(Stats.Bisections, 0u);
    EXPECT_EQ(Stats.WorkerRestarts, 0u);
    EXPECT_EQ(Stats.DeadlineKills, 0u);
    EXPECT_EQ(Stats.InlineFallbacks, 0u);
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      EXPECT_EQ(Stats.TerminalStatus[I], 0u) << changeStatusName(
          static_cast<ChangeStatus>(I));
    // An unobserved clean run receives one Result per change and one
    // UnitDone per unit: nothing else.
    EXPECT_EQ(Stats.FramesReceived, N + Stats.UnitsDispatched)
        << "batch " << BatchSize;
    EXPECT_GT(Stats.BytesReceived, 0u);

    // The same DiffCode again: its table now holds every path, so the
    // workers fork from a warm table and the coordinator's interning
    // only hits. Records render as the in-process ones either way.
    std::size_t Paths = System.labels()->pathCount();
    std::vector<ChangeRecord> Warm = exec::superviseChanges(
        System, {.Changes = env().Mined,
                 .TargetClasses = api().targetClasses(),
                 .Exec = Exec});
    ASSERT_EQ(Warm.size(), N);
    for (std::size_t I = 0; I < N; ++I) {
      std::string Expected = changeRecordToJson(env().Baseline.Changes[I]);
      EXPECT_EQ(changeRecordToJson(Records[I]), Expected) << I;
      EXPECT_EQ(changeRecordToJson(Warm[I]), Expected) << I;
    }
    EXPECT_EQ(System.labels()->pathCount(), Paths);
  }
}

TEST(SupervisedExec, WorkerSpansLieInsideAnalyzeChanges) {
  // The observer's tracer is 20 ms old before the run forks a worker, so
  // a worker span stamped against any later epoch would start before
  // the coordinator's analyzeChanges span does.
  obs::Observer Obs;
  {
    obs::Span Before(&Obs.Trace, "before");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ExecutionPolicy Exec;
  Exec.Mode = ExecutionMode::Supervised;
  Exec.Workers = 2;
  DiffCode System(api());
  System.run({.Changes = env().Mined,
              .TargetClasses = api().targetClasses(),
              .ClassifyWith = {},
              .Metrics = &Obs,
              .Exec = Exec});

  const std::uint32_t Self = static_cast<std::uint32_t>(::getpid());
  std::vector<obs::Tracer::Event> Events = Obs.Trace.events();
  auto Named = [](const obs::Tracer::Event &E, std::string_view Name) {
    return std::string_view(E.Name) == Name;
  };
  auto Stage = std::find_if(Events.begin(), Events.end(), [&](const auto &E) {
    return E.Pid == Self && Named(E, "analyzeChanges");
  });
  ASSERT_NE(Stage, Events.end());
  EXPECT_GE(Stage->StartNs, 20000000u);
  std::size_t WorkerSpans = 0;
  for (const obs::Tracer::Event &E : Events) {
    if (E.Pid == Self || !Named(E, "processChange"))
      continue;
    ++WorkerSpans;
    EXPECT_GE(E.StartNs, Stage->StartNs) << "pid " << E.Pid;
    EXPECT_LE(E.StartNs + E.DurNs, Stage->StartNs + Stage->DurNs)
        << "pid " << E.Pid;
  }
  EXPECT_EQ(WorkerSpans, env().Mined.size());
}

TEST(SupervisedExec, InProcessModeDispatchesUnchanged) {
  DiffCode System(api());
  CorpusReport R = System.run(
      {.Changes = env().Mined, .TargetClasses = api().targetClasses()});
  EXPECT_EQ(env().BaselineJson, corpusReportToJson(R));
}

TEST(SupervisedExec, EmptyAndOverprovisionedRuns) {
  DiffCode System(api());
  ExecutionPolicy Exec;
  Exec.Mode = ExecutionMode::Supervised;
  Exec.Workers = 4;

  // Empty corpus: no workers needed, report still well-formed.
  exec::SupervisionStats Stats;
  std::vector<ChangeRecord> None = exec::superviseChanges(
      System, {.Changes = {}, .TargetClasses = api().targetClasses(),
               .Exec = Exec},
      &Stats);
  EXPECT_TRUE(None.empty());
  EXPECT_EQ(Stats.UnitsDispatched, 0u);
  EXPECT_EQ(Stats.WorkerRestarts, 0u);

  // Far more workers than units: the pool clamps, the report matches.
  Exec.Workers = 16;
  Exec.BatchSize = 64; // one unit per 64 changes -> 1-2 units total
  CorpusReport R = System.run(
      {.Changes = env().Mined, .TargetClasses = api().targetClasses(),
       .Exec = Exec});
  EXPECT_EQ(env().BaselineJson, corpusReportToJson(R));
}

#ifdef DIFFCODE_CLI_PATH
TEST(SupervisedCli, WorkersFlagIsByteIdentical) {
  std::string Dir = testing::TempDir();
  std::string Corpus = DIFFCODE_SMOKE_CORPUS;
  ASSERT_EQ(runCli("pipeline " + Corpus + " --json", Dir + "/inproc.json"), 0);
  ASSERT_EQ(runCli("pipeline " + Corpus + " --workers 2 --json",
                   Dir + "/supervised.json"),
            0);
  std::string InProc = readWholeFile(Dir + "/inproc.json");
  ASSERT_FALSE(InProc.empty());
  EXPECT_EQ(InProc, readWholeFile(Dir + "/supervised.json"));
}

TEST(SupervisedCli, FailOnDegradedThreshold) {
  // The smoke corpus is 1 ok + 1 degraded = 50% non-ok. Above a 10%
  // threshold the run must fail with the distinguished exit code 3;
  // above 60% it is within budget and exits 0. Both runs still print
  // the full report (the tripwire gates the exit code, not the output).
  std::string Dir = testing::TempDir();
  std::string Corpus = DIFFCODE_SMOKE_CORPUS;
  EXPECT_EQ(runCli("pipeline " + Corpus + " --fail-on-degraded 10",
                   Dir + "/strict.txt"),
            3);
  EXPECT_NE(readWholeFile(Dir + "/strict.txt").find("corpus health"),
            std::string::npos);
  EXPECT_EQ(runCli("pipeline " + Corpus + " --fail-on-degraded 60",
                   Dir + "/lenient.txt"),
            0);
  // The tripwire composes with supervised mode.
  EXPECT_EQ(runCli("pipeline " + Corpus + " --workers 2 --fail-on-degraded 10",
                   Dir + "/strict2.txt"),
            3);
  EXPECT_EQ(runCli("pipeline " + Corpus + " --workers 2 --fail-on-degraded 60",
                   Dir + "/lenient2.txt"),
            0);
}
#endif
