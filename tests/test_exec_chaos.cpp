//===- tests/test_exec_chaos.cpp - Seeded chaos campaign -------------------===//
//
// The supervisor under deliberate process-level abuse: workers that
// crash, hang, OOM-exit, start slowly, or corrupt their result streams
// — each injected deterministically through the seeded fault plan's
// Proc* sites. The campaign asserts three things the robustness story
// stands on:
//
//   * containment: every change keeps its report slot; a misbehaving
//     worker costs one incarnation, never the run;
//   * classification: each failure mode lands on its own ChangeStatus
//     with an actionable detail string;
//   * determinism: fault decisions are pure in (seed, change, site,
//     attempt), so per-status counts and the full report JSON are
//     identical across worker counts, batch sizes, and repeat runs —
//     zero coordinator crashes anywhere.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "exec/Supervisor.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Shared corpus + clean in-process baseline, built once.
struct Env {
  corpus::Corpus C;
  std::vector<const corpus::CodeChange *> Mined;
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
    Out->BaselineJson = corpusReportToJson(DiffCode(api()).run(
        {.Changes = Out->Mined, .TargetClasses = api().targetClasses()}));
    return Out;
  }();
  return *E;
}

/// A small prefix of the mined corpus — chaos campaigns pay a fork +
/// respawn per injected death, so the suites run on a dozen changes.
std::vector<const corpus::CodeChange *> fewChanges(std::size_t N) {
  const auto &All = env().Mined;
  return {All.begin(), All.begin() + std::min(N, All.size())};
}

struct ChaosRun {
  std::vector<ChangeRecord> Records;
  exec::SupervisionStats Stats;
};

ChaosRun runCampaign(const support::FaultPlan &Plan, ExecutionPolicy Exec,
                     const std::vector<const corpus::CodeChange *> &Changes) {
  PipelineConfig Opts;
  Opts.Faults = Plan;
  DiffCode System(api(), Opts);
  Exec.Mode = ExecutionMode::Supervised;
  ChaosRun Out;
  Out.Records = exec::superviseChanges(
      System,
      {.Changes = Changes, .TargetClasses = api().targetClasses(),
       .Exec = Exec},
      &Out.Stats);
  return Out;
}

support::FaultPlan soloSite(support::FaultSite Site, std::uint64_t Seed) {
  support::FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.Rate = 1.0;
  Plan.SiteMask = support::faultSiteBit(Site);
  return Plan;
}

} // namespace

TEST(Chaos, KilledWorkersBecomeWorkerCrash) {
  // Every attempt of every change raises SIGKILL before processing, so
  // with a zero retry budget each change terminates as WorkerCrash after
  // bisection isolates it. The coordinator survives every death.
  ExecutionPolicy Exec;
  Exec.Workers = 2;
  Exec.BatchSize = 8;
  Exec.MaxRetries = 0;
  auto Changes = fewChanges(12);
  ChaosRun Run = runCampaign(soloSite(support::FaultSite::ProcKill, 7), Exec,
                             Changes);
  ASSERT_EQ(Run.Records.size(), Changes.size());
  for (std::size_t I = 0; I < Run.Records.size(); ++I) {
    const ChangeRecord &R = Run.Records[I];
    EXPECT_EQ(R.Status, ChangeStatus::WorkerCrash) << R.StatusDetail;
    EXPECT_EQ(R.Origin, Changes[I]->origin());
    EXPECT_NE(R.StatusDetail.find("killed by signal"), std::string::npos)
        << R.StatusDetail;
    EXPECT_NE(R.StatusDetail.find("(1 attempts)"), std::string::npos)
        << R.StatusDetail;
    EXPECT_TRUE(R.PerClass.empty());
  }
  EXPECT_EQ(Run.Stats.terminal(ChangeStatus::WorkerCrash), Changes.size());
  EXPECT_GT(Run.Stats.Bisections, 0u); // batches had to be split apart
  EXPECT_GT(Run.Stats.WorkerRestarts, 0u);
  EXPECT_EQ(Run.Stats.DeadlineKills, 0u);
}

TEST(Chaos, OomExitsBecomeWorkerOom) {
  ExecutionPolicy Exec;
  Exec.Workers = 2;
  Exec.BatchSize = 4;
  Exec.MaxRetries = 0;
  auto Changes = fewChanges(8);
  ChaosRun Run = runCampaign(soloSite(support::FaultSite::ProcOomExit, 7),
                             Exec, Changes);
  ASSERT_EQ(Run.Records.size(), Changes.size());
  for (const ChangeRecord &R : Run.Records) {
    EXPECT_EQ(R.Status, ChangeStatus::WorkerOom) << R.StatusDetail;
    EXPECT_NE(R.StatusDetail.find("memory limit"), std::string::npos);
  }
  EXPECT_EQ(Run.Stats.terminal(ChangeStatus::WorkerOom), Changes.size());
}

TEST(Chaos, HangsAreKilledByTheDeadlineWatchdog) {
  ExecutionPolicy Exec;
  Exec.Workers = 2;
  Exec.BatchSize = 1; // singleton units: one hang = one terminal record
  Exec.MaxRetries = 0;
  Exec.UnitDeadlineMs = 200;
  auto Changes = fewChanges(4);
  ChaosRun Run = runCampaign(soloSite(support::FaultSite::ProcHang, 7), Exec,
                             Changes);
  ASSERT_EQ(Run.Records.size(), Changes.size());
  for (const ChangeRecord &R : Run.Records) {
    EXPECT_EQ(R.Status, ChangeStatus::WorkerTimeout) << R.StatusDetail;
    EXPECT_NE(R.StatusDetail.find("deadline of 200 ms exceeded"),
              std::string::npos)
        << R.StatusDetail;
  }
  EXPECT_EQ(Run.Stats.terminal(ChangeStatus::WorkerTimeout), Changes.size());
  EXPECT_EQ(Run.Stats.DeadlineKills, Changes.size());
}

TEST(Chaos, CorruptResultStreamsAreDetected) {
  // Both corruption flavors (checksum flip, mid-frame truncation) must
  // be caught by the frame layer and classified as WorkerCrash with a
  // stream-level diagnostic — never decoded into a bogus record.
  ExecutionPolicy Exec;
  Exec.Workers = 2;
  Exec.BatchSize = 1;
  Exec.MaxRetries = 0;
  auto Changes = fewChanges(8);
  ChaosRun Run = runCampaign(
      soloSite(support::FaultSite::ProcFrameCorrupt, 7), Exec, Changes);
  ASSERT_EQ(Run.Records.size(), Changes.size());
  std::size_t Flipped = 0, Truncated = 0;
  for (const ChangeRecord &R : Run.Records) {
    EXPECT_EQ(R.Status, ChangeStatus::WorkerCrash) << R.StatusDetail;
    if (R.StatusDetail.find("result stream corrupt") != std::string::npos)
      ++Flipped;
    else if (R.StatusDetail.find("truncated result stream") !=
             std::string::npos)
      ++Truncated;
    else
      ADD_FAILURE() << "unexpected detail: " << R.StatusDetail;
  }
  // The flavor is faultMix(index) parity — both occur across 8 changes.
  EXPECT_GT(Flipped, 0u);
  EXPECT_GT(Truncated, 0u);
  EXPECT_EQ(Run.Stats.terminal(ChangeStatus::WorkerCrash), Changes.size());
}

TEST(Chaos, SlowStartIsLatencyOnly) {
  // Delayed worker starts cost time, not correctness: the report is still
  // byte-identical to the clean in-process baseline.
  ExecutionPolicy Exec;
  Exec.Workers = 4;
  Exec.BatchSize = 3;
  PipelineConfig Opts;
  Opts.Faults = soloSite(support::FaultSite::ProcSlowStart, 7);
  DiffCode System(api(), Opts);
  Exec.Mode = ExecutionMode::Supervised;
  CorpusReport R = System.run(
      {.Changes = env().Mined, .TargetClasses = api().targetClasses(),
       .Exec = Exec});
  EXPECT_EQ(env().BaselineJson, corpusReportToJson(R));
}

TEST(Chaos, RetryBudgetRecoversTransientFailures) {
  // Proc sites key on the attempt number, so a change that fails at
  // attempt 0 can deterministically succeed at attempt 1 — that is the
  // scenario the retry budget exists for. At rate 0.5 with retries
  // allowed, some changes must recover to Ok; with the budget at zero,
  // the same campaign strands strictly more changes in terminal states.
  support::FaultPlan Plan;
  Plan.Seed = 21;
  Plan.Rate = 0.5;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::ProcKill);

  ExecutionPolicy Exec;
  Exec.Workers = 2;
  Exec.BatchSize = 2;
  Exec.MaxRetries = 3;
  Exec.BackoffBaseMs = 1;
  auto Changes = fewChanges(10);
  ChaosRun WithRetries = runCampaign(Plan, Exec, Changes);
  Exec.MaxRetries = 0;
  ChaosRun NoRetries = runCampaign(Plan, Exec, Changes);

  auto CountOk = [](const ChaosRun &Run) {
    std::size_t N = 0;
    for (const ChangeRecord &R : Run.Records)
      N += R.Status == ChangeStatus::Ok;
    return N;
  };
  EXPECT_GT(CountOk(WithRetries), CountOk(NoRetries));
  EXPECT_GT(WithRetries.Stats.Retries, 0u);
}

TEST(Chaos, ObservedCampaignKeepsTelemetryCoherent) {
  // The ProcKill campaign rerun with an observer attached: incarnations
  // die mid-run, yet the stitched trace and the merged worker metrics
  // must stay coherent. Each incarnation gets a fresh pipe and decoder,
  // so a frame from a dead incarnation can never arrive.
  support::FaultPlan Plan;
  Plan.Seed = 21;
  Plan.Rate = 0.5;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::ProcKill);

  PipelineConfig Opts;
  Opts.Faults = Plan;
  DiffCode System(api(), Opts);
  ExecutionPolicy Exec;
  Exec.Mode = ExecutionMode::Supervised;
  Exec.Workers = 2;
  Exec.BatchSize = 2;
  Exec.MaxRetries = 3;
  Exec.BackoffBaseMs = 1;

  obs::Observer Obs;
  exec::SupervisionStats Stats;
  auto Changes = fewChanges(10);
  std::vector<ChangeRecord> Records = exec::superviseChanges(
      System,
      {.Changes = Changes, .TargetClasses = api().targetClasses(),
       .Metrics = &Obs, .Exec = Exec},
      &Stats);
  ASSERT_EQ(Records.size(), Changes.size());

  std::size_t Ok = 0;
  for (const ChangeRecord &R : Records)
    Ok += R.Status == ChangeStatus::Ok;
  ASSERT_GT(Ok, 0u); // retries recovered some changes (seed-stable)

  // Telemetry flowed from surviving incarnations.
  EXPECT_GT(Stats.TelemetryFrames, 0u);

  // Every committed change's span was stitched into the coordinator's
  // trace: a unit's telemetry frame precedes its UnitDone, so a span can
  // only be missing if the unit never committed.
  std::string Json = Obs.Trace.traceJson();
  std::size_t Spans = 0;
  for (std::size_t P = Json.find("\"name\":\"processChange\"");
       P != std::string::npos;
       P = Json.find("\"name\":\"processChange\"", P + 1))
    ++Spans;
  EXPECT_GE(Spans, Ok);

  // The worker registries were merged under the exec.worker.* namespace
  // and the transport counters made it into the summary.
  std::string Metrics = Obs.summarize().Metrics.json();
  EXPECT_NE(Metrics.find("\"exec.worker."), std::string::npos);
  EXPECT_NE(Metrics.find("\"exec.telemetry_frames\""), std::string::npos);
}

TEST(Chaos, MixedCampaignIsCompleteAndDeterministic) {
  // All five process-level sites armed at a moderate rate: the report
  // must stay complete (every change resolved, zero "supervision
  // aborted" records) and byte-identical across worker counts, batch
  // sizes, and a repeat run — the determinism bar that makes chaos
  // results diffable in CI.
  support::FaultPlan Plan;
  Plan.Seed = 13;
  Plan.Rate = 0.3;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::ProcKill) |
                  support::faultSiteBit(support::FaultSite::ProcHang) |
                  support::faultSiteBit(support::FaultSite::ProcSlowStart) |
                  support::faultSiteBit(support::FaultSite::ProcFrameCorrupt) |
                  support::faultSiteBit(support::FaultSite::ProcOomExit);

  auto Changes = fewChanges(10);
  auto Campaign = [&](unsigned Workers, std::size_t Batch) {
    ExecutionPolicy Exec;
    Exec.Workers = Workers;
    Exec.BatchSize = Batch;
    Exec.MaxRetries = 1;
    Exec.BackoffBaseMs = 1;
    Exec.UnitDeadlineMs = 200;
    return runCampaign(Plan, Exec, Changes);
  };

  ChaosRun Reference = Campaign(1, 2);
  ASSERT_EQ(Reference.Records.size(), Changes.size());
  std::string ReferenceJson;
  bool SawTerminal = false;
  for (std::size_t I = 0; I < Reference.Records.size(); ++I) {
    const ChangeRecord &R = Reference.Records[I];
    EXPECT_EQ(R.Origin, Changes[I]->origin());
    EXPECT_EQ(R.StatusDetail.find("supervision aborted"), std::string::npos);
    SawTerminal = SawTerminal || R.Status == ChangeStatus::WorkerCrash ||
                  R.Status == ChangeStatus::WorkerTimeout ||
                  R.Status == ChangeStatus::WorkerOom;
    ReferenceJson += changeRecordToJson(R);
    ReferenceJson += '\n';
  }
  EXPECT_TRUE(SawTerminal); // the campaign actually did damage

  for (auto [Workers, Batch] :
       {std::pair<unsigned, std::size_t>{2, 2}, {4, 2}, {2, 5}, {1, 2}}) {
    ChaosRun Run = Campaign(Workers, Batch);
    ASSERT_EQ(Run.Records.size(), Changes.size());
    std::string Json;
    for (const ChangeRecord &R : Run.Records) {
      Json += changeRecordToJson(R);
      Json += '\n';
    }
    EXPECT_EQ(ReferenceJson, Json)
        << Workers << " workers, batch " << Batch;
  }
}
