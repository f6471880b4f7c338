//===- tests/test_fault_injection.cpp - Pipeline fault containment ---------===//
//
// The differential harness for the fault-isolation layer:
//
//   * a disabled fault plan reproduces today's pipeline output bit for
//     bit (the injection points are free when unarmed);
//   * an armed campaign still yields a complete CorpusReport — every
//     mined change keeps its slot, failures become structured statuses,
//     and the result is byte-identical at any thread count;
//   * changes the campaign did not hit are byte-identical to the clean
//     run, i.e. containment is really per change.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "support/FaultInjection.h"
#include "usage/UsageChange.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Shared corpus + clean baseline, built once for the whole suite.
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

CorpusReport runWithPlan(const support::FaultPlan &Plan, unsigned Threads) {
  PipelineConfig Opts;
  Opts.Threads = Threads;
  Opts.Faults = Plan;
  return DiffCode(api(), Opts).run(
      {.Changes = env().Mined, .TargetClasses = api().targetClasses()});
}

} // namespace

TEST(FaultHarness, DisabledPlanIsBitIdenticalToBaseline) {
  // Rate 0 means "production run" no matter what seed/mask say.
  support::FaultPlan Plan;
  Plan.Seed = 99;
  Plan.Rate = 0.0;
  for (unsigned Threads : {1u, 4u})
    EXPECT_EQ(env().BaselineJson,
              corpusReportToJson(runWithPlan(Plan, Threads)));
  EXPECT_EQ(env().Baseline.Health.troubled() +
                env().Baseline.Health.count(ChangeStatus::Ok),
            env().Baseline.Changes.size());
}

TEST(FaultHarness, ArmedCampaignYieldsCompleteDeterministicReport) {
  support::FaultPlan Plan;
  Plan.Seed = 77;
  Plan.Rate = 0.001;

  CorpusReport Serial = runWithPlan(Plan, 1);
  std::string SerialJson = corpusReportToJson(Serial);

  // Complete: every mined change still has its slot.
  ASSERT_EQ(Serial.Changes.size(), env().Mined.size());
  for (std::size_t I = 0; I < Serial.Changes.size(); ++I)
    EXPECT_EQ(Serial.Changes[I].Origin, env().Mined[I]->origin());

  // The campaign actually hit something, and containment turned every
  // hit into a structured status rather than an aborted run.
  std::size_t Thrown = Serial.Health.count(ChangeStatus::AnalysisThrow);
  EXPECT_GT(Thrown, 0u);
  EXPECT_LT(Thrown, Serial.Changes.size());
  for (const ChangeRecord &Record : Serial.Changes)
    if (Record.Status == ChangeStatus::AnalysisThrow) {
      EXPECT_NE(Record.StatusDetail.find("injected fault"),
                std::string::npos)
          << Record.Origin << ": " << Record.StatusDetail;
      EXPECT_TRUE(Record.PerClass.empty());
    }

  // Health bookkeeping is consistent with the records.
  std::size_t Counted = 0;
  for (std::size_t I = 0; I < NumChangeStatuses; ++I)
    Counted += Serial.Health.StatusCounts[I];
  EXPECT_EQ(Counted, Serial.Changes.size());

  // Deterministic: the same campaign lands on the same changes at any
  // thread count, byte for byte.
  for (unsigned Threads : {2u, 8u})
    EXPECT_EQ(SerialJson,
              corpusReportToJson(runWithPlan(Plan, Threads)))
        << "thread count " << Threads;
}

TEST(FaultHarness, UnfaultedChangesMatchCleanRunByteForByte) {
  support::FaultPlan Plan;
  Plan.Seed = 77;
  Plan.Rate = 0.001;
  CorpusReport Faulted = runWithPlan(Plan, 4);
  ASSERT_EQ(Faulted.Changes.size(), env().Baseline.Changes.size());
  std::size_t Unfaulted = 0;
  for (std::size_t I = 0; I < Faulted.Changes.size(); ++I) {
    if (Faulted.Changes[I].Status == ChangeStatus::AnalysisThrow)
      continue;
    ++Unfaulted;
    EXPECT_EQ(changeRecordToJson(Faulted.Changes[I]),
              changeRecordToJson(env().Baseline.Changes[I]))
        << env().Baseline.Changes[I].Origin;
  }
  EXPECT_GT(Unfaulted, 0u);
}

TEST(FaultHarness, ClusteringFaultLeavesChangeRecordsIntact) {
  // Arm only the clustering site at rate 1: every agglomeration fails,
  // per-change processing is untouched.
  support::FaultPlan Plan;
  Plan.Seed = 5;
  Plan.Rate = 1.0;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Clustering);

  CorpusReport Report = runWithPlan(Plan, 2);
  ASSERT_EQ(Report.Changes.size(), env().Baseline.Changes.size());
  for (std::size_t I = 0; I < Report.Changes.size(); ++I)
    EXPECT_EQ(changeRecordToJson(Report.Changes[I]),
              changeRecordToJson(env().Baseline.Changes[I]));

  // Every class whose dendrogram needs at least one merge fails; its
  // filter results survive and the error is recorded.
  std::size_t ExpectFailures = 0;
  for (const ClassReport &Class : env().Baseline.PerClass)
    if (Class.Filtered.Kept.size() >= 2)
      ++ExpectFailures;
  ASSERT_GT(ExpectFailures, 0u) << "corpus too small to exercise clustering";
  EXPECT_EQ(Report.Health.ClusteringFailures, ExpectFailures);

  ASSERT_EQ(Report.PerClass.size(), env().Baseline.PerClass.size());
  for (std::size_t I = 0; I < Report.PerClass.size(); ++I) {
    const ClassReport &Class = Report.PerClass[I];
    const ClassReport &Clean = env().Baseline.PerClass[I];
    EXPECT_EQ(Class.Filtered.Kept.size(), Clean.Filtered.Kept.size());
    if (Clean.Filtered.Kept.size() >= 2) {
      EXPECT_TRUE(Class.Tree.nodes().empty()) << Class.TargetClass;
      EXPECT_NE(Class.ClusteringError.find("injected fault"),
                std::string::npos)
          << Class.TargetClass;
    } else {
      EXPECT_TRUE(Class.ClusteringError.empty()) << Class.TargetClass;
    }
  }

  // Still deterministic across thread counts.
  EXPECT_EQ(corpusReportToJson(Report),
            corpusReportToJson(runWithPlan(Plan, 8)));
}

TEST(FaultHarness, SeedSelectsDifferentVictims) {
  support::FaultPlan A;
  A.Seed = 1;
  A.Rate = 0.001;
  support::FaultPlan B = A;
  B.Seed = 2;
  CorpusReport RA = runWithPlan(A, 2);
  CorpusReport RB = runWithPlan(B, 2);
  std::vector<std::string> VictimsA, VictimsB;
  for (const ChangeRecord &R : RA.Changes)
    if (R.Status == ChangeStatus::AnalysisThrow)
      VictimsA.push_back(R.Origin);
  for (const ChangeRecord &R : RB.Changes)
    if (R.Status == ChangeStatus::AnalysisThrow)
      VictimsB.push_back(R.Origin);
  EXPECT_NE(VictimsA, VictimsB);
}

TEST(FaultHarness, HungarianSiteCountsOnlySolverPairs) {
  // Three kept changes share their one removed path and differ in their
  // one added path. Every removed-side pathsDist is between equal lists
  // and skips the solver; every added-side one runs it. So the class's
  // three pairs evaluate the armed Hungarian point exactly three times.
  support::Interner Table;
  auto Get = [](const char *Algo) {
    return usage::FeaturePath{
        usage::NodeLabel::root("Cipher"),
        usage::NodeLabel::method("Cipher.getInstance/1"),
        usage::NodeLabel::arg(1, analysis::AbstractValue::strConst(Algo))};
  };
  ClassReport Class;
  Class.TargetClass = "Cipher";
  for (const char *Algo :
       {"AES/CBC/PKCS5Padding", "AES/GCM/NoPadding", "AES/CTR/NoPadding"})
    Class.Filtered.Kept.push_back(
        usage::UsageChange::intern(Table, "Cipher", {Get("AES")}, {Get(Algo)}));

  support::FaultStats Stats;
  support::FaultPlan Plan;
  Plan.Seed = 3;
  Plan.Rate = 1e-12; // armed, never fires
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Hungarian);
  Plan.Stats = &Stats;
  PipelineConfig Opts;
  Opts.Faults = Plan;
  DiffCode(api(), Opts).clusterClass(Class);

  EXPECT_TRUE(Class.ClusteringError.empty()) << Class.ClusteringError;
  EXPECT_EQ(Class.Tree.leafCount(), 3u);
  EXPECT_EQ(Stats.evaluated(support::FaultSite::Hungarian), 3u);
  EXPECT_EQ(Stats.fired(support::FaultSite::Hungarian), 0u);
}

namespace {

/// Derives over one identical multiset of two Cipher DAGs under \p Plan
/// and returns how often the Hungarian point was evaluated.
std::uint64_t hungarianEvaluationsOfIdenticalDerive(support::FaultPlan Plan) {
  support::FaultStats Stats;
  Plan.Seed = 3;
  Plan.Rate = 1e-12; // armed, never fires
  Plan.Stats = &Stats;
  analysis::ObjectTable Objects;
  unsigned Enc = Objects.getOrCreate({1, 1, 0}, "Cipher");
  std::vector<usage::UsageDag> Dags;
  for (const char *Algo : {"AES", "DES"}) {
    analysis::UsageLog Log;
    Log[Enc] = {{"Cipher.getInstance/1",
                 {analysis::AbstractValue::strConst(Algo)}}};
    Dags.push_back(usage::UsageDag::build(Objects, Log, Enc));
  }
  support::Interner Table;
  support::FaultScope Scope(&Plan, 0);
  std::vector<usage::UsageChange> Changes =
      usage::deriveUsageChanges(Dags, Dags, "Cipher", Table);
  EXPECT_EQ(Changes.size(), 2u);
  for (const usage::UsageChange &C : Changes)
    EXPECT_TRUE(C.isEmpty());
  EXPECT_EQ(Stats.fired(support::FaultSite::Hungarian), 0u);
  return Stats.evaluated(support::FaultSite::Hungarian);
}

} // namespace

TEST(FaultHarness, ArmedHungarianSiteLetsIdenticalDeriveSkipTheSolver) {
  // Identical multisets need no solver, and the short-circuit is the one
  // path armed or not: a campaign evaluates the Hungarian points the
  // production run reaches, and no others.
  support::FaultPlan Plan;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Hungarian);
  EXPECT_EQ(hungarianEvaluationsOfIdenticalDerive(Plan), 0u);
}

TEST(FaultHarness, UnarmedHungarianSiteLetsIdenticalDeriveSkipTheSolver) {
  support::FaultPlan Plan;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Parser);
  EXPECT_EQ(hungarianEvaluationsOfIdenticalDerive(Plan), 0u);
}
