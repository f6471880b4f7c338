//===- tests/test_metrics_differential.cpp - Observability determinism -----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
// The differential harness for the observability layer:
//
//   * instrumentation never changes what the pipeline computes — a
//     metrics-off report is a byte-for-byte PREFIX of the metrics-on
//     report over the same corpus (the "metrics" block is the last key);
//   * the deterministic metric surface (everything not flagged PerRun)
//     is byte-identical at 1, 2, and 8 analysis threads;
//   * span aggregation is structurally deterministic: the same stages
//     run the same number of times at every thread count.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "obs/Observer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Shared corpus, mined once for the whole suite.
struct Env {
  corpus::Corpus C;
  std::vector<const corpus::CodeChange *> Mined;
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
    return Out;
  }();
  return *E;
}

PipelineConfig optionsFor(unsigned Threads) {
  PipelineConfig Opts;
  Opts.Threads = Threads;
  return Opts;
}

CorpusReport runObserved(unsigned Threads, obs::Observer &Obs) {
  return DiffCode(api(), optionsFor(Threads))
      .run({.Changes = env().Mined,
                    .TargetClasses = api().targetClasses(),
                    .Metrics = &Obs});
}

CorpusReport runUnobserved(unsigned Threads) {
  return DiffCode(api(), optionsFor(Threads))
      .run({.Changes = env().Mined,
                    .TargetClasses = api().targetClasses()});
}

} // namespace

TEST(MetricsDifferential, OffReportIsBytePrefixOfOnReport) {
  std::string Off = corpusReportToJson(runUnobserved(1));
  obs::Observer Obs;
  std::string On = corpusReportToJson(runObserved(1, Obs));

  // The instrumented run computed exactly the same report; the only
  // difference is the trailing "metrics" object. ReportWriter emits it as
  // the last key, so the off report minus its closing brace must be a
  // byte prefix of the on report.
  ASSERT_FALSE(Off.empty());
  ASSERT_EQ(Off.back(), '}');
  std::string Prefix = Off.substr(0, Off.size() - 1);
  ASSERT_GT(On.size(), Off.size());
  EXPECT_EQ(On.compare(0, Prefix.size(), Prefix), 0)
      << "instrumentation changed the report body";
  EXPECT_EQ(On.compare(Prefix.size(), 12, ",\"metrics\":{"), 0);
  EXPECT_EQ(On.back(), '}');
}

TEST(MetricsDifferential, DeterministicSurfaceIsThreadCountInvariant) {
  obs::Observer Serial;
  CorpusReport Baseline = runObserved(1, Serial);
  std::string BaselineDet = Baseline.Metrics.deterministicJson();
  ASSERT_FALSE(Baseline.Metrics.empty());
  ASSERT_FALSE(BaselineDet.empty());

  for (unsigned Threads : {2u, 8u}) {
    obs::Observer Obs;
    CorpusReport Report = runObserved(Threads, Obs);
    EXPECT_EQ(BaselineDet, Report.Metrics.deterministicJson())
        << "thread count " << Threads;
    // The underlying report body is untouched by threading too.
    EXPECT_EQ(corpusReportToJson(Baseline).substr(0, 64),
              corpusReportToJson(Report).substr(0, 64));
  }
}

TEST(MetricsDifferential, StageSpanCountsAreThreadCountInvariant) {
  obs::Observer Serial;
  CorpusReport Baseline = runObserved(1, Serial);
  ASSERT_FALSE(Baseline.Metrics.Stages.empty());

  for (unsigned Threads : {2u, 8u}) {
    obs::Observer Obs;
    CorpusReport Report = runObserved(Threads, Obs);
    ASSERT_EQ(Report.Metrics.Stages.size(), Baseline.Metrics.Stages.size());
    for (std::size_t I = 0; I < Baseline.Metrics.Stages.size(); ++I) {
      EXPECT_EQ(Report.Metrics.Stages[I].Name, Baseline.Metrics.Stages[I].Name);
      EXPECT_EQ(Report.Metrics.Stages[I].Spans,
                Baseline.Metrics.Stages[I].Spans)
          << Baseline.Metrics.Stages[I].Name << " at " << Threads
          << " threads";
    }
  }
}

TEST(MetricsDifferential, ObservedRunCarriesLoopMetrics) {
  // The per-change loop reports all four threadpool.* metrics. Only the
  // batch count is deterministic, and it must not move with the thread
  // count. The loop claims whole file histories, so it makes one claim
  // per (project, file) and starts at most one thread per history; each
  // thread that ran records one busy-time sample.
  std::set<std::pair<std::string, std::string>> Histories;
  for (const corpus::CodeChange *Change : env().Mined)
    Histories.emplace(Change->ProjectName, Change->FileName);
  const std::size_t N = Histories.size();
  ASSERT_LT(N, env().Mined.size());
  for (unsigned Threads : {1u, 2u, 8u}) {
    obs::Observer Obs;
    CorpusReport Report = runObserved(Threads, Obs);
    std::map<std::string, obs::MetricValue> Loop;
    std::vector<std::string> Names;
    for (const obs::MetricValue &V : Report.Metrics.Metrics.Values)
      if (V.Name.rfind("threadpool.", 0) == 0) {
        Loop[V.Name] = V;
        Names.push_back(V.Name);
      }
    ASSERT_EQ(Names, (std::vector<std::string>{
                         "threadpool.batches", "threadpool.chunks",
                         "threadpool.queue_wait_ns",
                         "threadpool.worker_busy_ns"}))
        << Threads << " threads";
    const unsigned Ran =
        static_cast<unsigned>(std::min<std::size_t>(Threads, N));
    EXPECT_EQ(Loop["threadpool.batches"].Count, 1u) << Threads << " threads";
    EXPECT_EQ(Loop["threadpool.batches"].S, obs::Stability::Deterministic);
    EXPECT_EQ(Loop["threadpool.chunks"].Count, N) << Threads << " threads";
    EXPECT_EQ(Loop["threadpool.worker_busy_ns"].Count, Ran)
        << Threads << " threads";
    for (const char *Name :
         {"threadpool.chunks", "threadpool.queue_wait_ns",
          "threadpool.worker_busy_ns"})
      EXPECT_EQ(Loop[Name].S, obs::Stability::PerRun) << Name;
  }
}

TEST(MetricsDifferential, ObservedRunMeasuresWallTimes) {
  obs::Observer Obs;
  CorpusReport Report = runObserved(1, Obs);

  // Every processed change carries a measured wall time, surfaced through
  // the worst-offender rows of the metrics block (and only there — the
  // deterministic health block never sees it).
  ASSERT_FALSE(Report.Changes.empty());
  for (const ChangeRecord &Record : Report.Changes)
    EXPECT_GT(Record.WallNanos, 0u) << Record.Origin;
  ASSERT_FALSE(Report.Health.WorstOffenders.empty());
  for (const WorstOffender &O : Report.Health.WorstOffenders)
    EXPECT_GT(O.WallNanos, 0u) << O.Origin;

  // An unobserved run leaves them untouched.
  CorpusReport Plain = runUnobserved(1);
  for (const ChangeRecord &Record : Plain.Changes)
    EXPECT_EQ(Record.WallNanos, 0u) << Record.Origin;
}

TEST(MetricsDifferential, FaultCountersAreObservedWithoutChangingDecisions) {
  support::FaultPlan Plan;
  Plan.Seed = 77;
  Plan.Rate = 0.001;

  // Reference: the armed campaign without stats.
  PipelineConfig Opts = optionsFor(2);
  Opts.Faults = Plan;
  std::string Reference = corpusReportToJson(
      DiffCode(api(), Opts).run(
          {.Changes = env().Mined, .TargetClasses = api().targetClasses()}));

  // Same campaign with FaultStats wired through an observer: the fault
  // decisions (and therefore the report body) must be unchanged, and the
  // stats must have seen at least as many evaluations as firings.
  support::FaultStats Stats;
  PipelineConfig ObsOpts = optionsFor(2);
  ObsOpts.Faults = Plan;
  ObsOpts.Faults.Stats = &Stats;
  obs::Observer Obs;
  std::string Observed = corpusReportToJson(
      DiffCode(api(), ObsOpts)
          .run({.Changes = env().Mined,
                        .TargetClasses = api().targetClasses(),
                        .Metrics = &Obs}));

  ASSERT_FALSE(Reference.empty());
  EXPECT_EQ(Observed.compare(0, Reference.size() - 1,
                             Reference.substr(0, Reference.size() - 1)),
            0)
      << "counting faults changed fault decisions";
  EXPECT_GT(Stats.totalFired(), 0u);
  std::uint64_t Evaluated = 0;
  for (unsigned Site = 0; Site < support::NumFaultSites; ++Site) {
    Evaluated += Stats.Evaluated[Site].load();
    EXPECT_LE(Stats.Fired[Site].load(), Stats.Evaluated[Site].load());
  }
  EXPECT_GT(Evaluated, Stats.totalFired());
}
