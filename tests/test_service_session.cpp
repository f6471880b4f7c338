//===- tests/test_service_session.cpp - Incremental session differential --===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AnalysisSession contract (DESIGN.md "Service mode and the
/// session API"): after any sequence of ingests, the session's report
/// is byte-identical to a cold DiffCode::run over the same changes in
/// the same order — at any thread count, and with an armed in-process
/// fault plan (where the session re-clusters touched classes on every
/// ingest). The JSON leaves the dendrograms out, so repaired trees are
/// also compared node for node.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisSession.h"

#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "rules/BuiltinRules.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;
using namespace diffcode::service;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// A deterministic mined change stream, by value so ingests can slice it.
std::vector<corpus::CodeChange> minedChanges(unsigned Projects = 12,
                                             std::uint64_t Seed = 42) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = Projects;
  Opts.Seed = Seed;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<corpus::CodeChange> Out;
  for (const corpus::CodeChange *Change : M.mine(C))
    Out.push_back(*Change);
  return Out;
}

/// The cold-batch oracle: one fresh DiffCode::run over \p Changes.
std::string coldJson(const std::vector<corpus::CodeChange> &Changes,
                     const PipelineConfig &Config = PipelineConfig()) {
  DiffCode System(api(), Config);
  PipelineRequest Request;
  for (const corpus::CodeChange &Change : Changes)
    Request.Changes.push_back(&Change);
  Request.TargetClasses = api().targetClasses();
  return corpusReportToJson(System.run(Request));
}

/// Splits \p Changes into \p Parts contiguous batches (sizes as even as
/// possible; order preserved).
std::vector<std::vector<corpus::CodeChange>>
splitBatches(const std::vector<corpus::CodeChange> &Changes,
             std::size_t Parts) {
  std::vector<std::vector<corpus::CodeChange>> Out(Parts);
  for (std::size_t I = 0; I < Changes.size(); ++I)
    Out[I * Parts / Changes.size()].push_back(Changes[I]);
  return Out;
}

/// Groups \p Changes into commits: runs of consecutive changes sharing a
/// project and commit index, what one push delivers.
std::vector<std::vector<corpus::CodeChange>>
commitGroups(const std::vector<corpus::CodeChange> &Changes) {
  std::vector<std::vector<corpus::CodeChange>> Out;
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    if (I == 0 || Changes[I].ProjectName != Changes[I - 1].ProjectName ||
        Changes[I].CommitIndex != Changes[I - 1].CommitIndex)
      Out.emplace_back();
    Out.back().push_back(Changes[I]);
  }
  return Out;
}

/// Each class's survivor count (Filtered.Kept), in target-class order.
std::vector<std::size_t> survivors(const AnalysisSession &Session) {
  std::vector<std::size_t> Out;
  for (const ClassReport &Class : Session.report().PerClass)
    Out.push_back(Class.Filtered.Kept.size());
  return Out;
}

/// The pairs among \p N survivors.
std::uint64_t pairs(std::uint64_t N) { return N * (N - 1) / 2; }

/// Field-by-field FilterResult equality, with the first difference named.
::testing::AssertionResult sameFilterResult(const FilterResult &A,
                                            const FilterResult &B) {
  if (A.Outcome != B.Outcome)
    return ::testing::AssertionFailure() << "outcomes differ";
  if (A.Total != B.Total || A.AfterSame != B.AfterSame ||
      A.AfterAdd != B.AfterAdd || A.AfterRem != B.AfterRem ||
      A.AfterDup != B.AfterDup)
    return ::testing::AssertionFailure() << "counts differ";
  if (A.Kept.size() != B.Kept.size())
    return ::testing::AssertionFailure()
           << A.Kept.size() << " kept vs " << B.Kept.size();
  for (std::size_t I = 0; I < A.Kept.size(); ++I)
    if (!A.Kept[I].sameFeatures(B.Kept[I]) ||
        A.Kept[I].Origin != B.Kept[I].Origin)
      return ::testing::AssertionFailure() << "kept " << I << " differs";
  return ::testing::AssertionSuccess();
}

/// Field-by-field CorpusHealth equality.
::testing::AssertionResult sameHealth(const CorpusHealth &A,
                                      const CorpusHealth &B) {
  if (A.StatusCounts != B.StatusCounts ||
      A.ClusteringFailures != B.ClusteringFailures)
    return ::testing::AssertionFailure() << "counts differ";
  if (A.WorstOffenders.size() != B.WorstOffenders.size())
    return ::testing::AssertionFailure() << "offender counts differ";
  for (std::size_t I = 0; I < A.WorstOffenders.size(); ++I) {
    const WorstOffender &X = A.WorstOffenders[I], &Y = B.WorstOffenders[I];
    if (X.Origin != Y.Origin || X.Steps != Y.Steps || X.Status != Y.Status ||
        X.WallNanos != Y.WallNanos)
      return ::testing::AssertionFailure() << "offender " << I << " differs";
  }
  return ::testing::AssertionSuccess();
}

/// The value of counter \p Name in \p Obs's registry, or nothing when it
/// was never recorded.
std::optional<std::uint64_t> counterValue(const obs::Observer &Obs,
                                          const std::string &Name) {
  for (const obs::MetricValue &V : Obs.Metrics.snapshot().Values)
    if (V.Name == Name)
      return V.Count;
  return std::nullopt;
}

/// Ingests every batch into a fresh session and returns the snapshot.
std::string
sessionJson(const std::vector<std::vector<corpus::CodeChange>> &Batches,
            SessionOptions Opts, SessionStats *StatsOut = nullptr) {
  AnalysisSession Session(api(), std::move(Opts));
  for (const std::vector<corpus::CodeChange> &Batch : Batches)
    Session.ingest(Batch);
  if (StatsOut)
    *StatsOut = Session.stats();
  return Session.reportJson();
}

} // namespace

TEST(ServiceSession, EmptySessionMatchesEmptyColdRun) {
  AnalysisSession Session(api(), SessionOptions());
  EXPECT_EQ(Session.size(), 0u);
  EXPECT_EQ(Session.reportJson(), coldJson({}));
}

TEST(ServiceSession, BatchedIngestMatchesColdBatchAtAnyThreadCount) {
  std::vector<corpus::CodeChange> Changes = minedChanges();
  ASSERT_GE(Changes.size(), 30u);
  std::string Oracle = coldJson(Changes);

  for (unsigned Threads : {1u, 2u, 8u}) {
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    // One big ingest, and the same stream in five slices: both must
    // land on the oracle's bytes.
    EXPECT_EQ(sessionJson({Changes}, Opts), Oracle) << Threads;
    EXPECT_EQ(sessionJson(splitBatches(Changes, 5), Opts), Oracle)
        << Threads;
  }
}

TEST(ServiceSession, ReplayedBatchMatchesColdDoubledStream) {
  std::vector<corpus::CodeChange> Changes = minedChanges(6, 7);
  ASSERT_FALSE(Changes.empty());

  // The same content arriving again (a re-landed commit) is appended
  // like any other change and must produce exactly the bytes of a cold
  // run over the doubled stream.
  AnalysisSession Session(api(), SessionOptions());
  Session.ingest(Changes);
  Session.ingest(Changes);

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  EXPECT_EQ(Session.reportJson(), coldJson(Doubled));

  SessionStats Stats = Session.stats();
  EXPECT_EQ(Stats.TotalChanges, Doubled.size());
  EXPECT_EQ(Stats.Ingests, 2u);
}

TEST(ServiceSession, GrownClassesReclusterFromScratch) {
  // 24 projects at seed 7, split in halves: the tail grows a class that
  // the head left with at least two survivors, so the append re-clusters
  // a class that already had a tree.
  std::vector<corpus::CodeChange> Changes = minedChanges(24, 7);
  ASSERT_GE(Changes.size(), 40u);
  std::size_t Half = Changes.size() / 2;
  std::vector<corpus::CodeChange> Head(Changes.begin(),
                                       Changes.begin() + Half);
  std::vector<corpus::CodeChange> Tail(Changes.begin() + Half,
                                       Changes.end());

  AnalysisSession Session(api(), SessionOptions());
  IngestStats Warm = Session.ingest(Head);
  std::vector<std::size_t> Before = survivors(Session);
  IngestStats Append = Session.ingest(Tail);
  std::vector<std::size_t> After = survivors(Session);

  // The warm ingest clustered every class it touched. The append
  // re-clusters exactly the classes whose survivors grew, each from
  // scratch: every pair among its survivors is computed again.
  EXPECT_GT(Warm.PairsComputed, 0u);
  EXPECT_GT(Append.ClassesRepaired, 0u);
  bool GrewFromTwo = false;
  std::uint64_t GrownPairs = 0;
  for (std::size_t C = 0; C < After.size(); ++C) {
    ASSERT_GE(After[C], Before[C]) << "survivors are append-only";
    if (After[C] == Before[C])
      continue;
    GrewFromTwo |= Before[C] >= 2;
    GrownPairs += pairs(After[C]);
  }
  ASSERT_TRUE(GrewFromTwo) << "the tail must grow a class holding >= 2";
  EXPECT_EQ(Append.PairsComputed, GrownPairs);
  EXPECT_EQ(Append.PairsReused, 0u);
  EXPECT_EQ(Session.reportJson(), coldJson(Changes));
}

TEST(ServiceSession, ArmedAnalysisFaultsStayByteIdentical) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  // In-process faults make outcomes a function of the fault campaign:
  // each change runs under the same global-index FaultScope a cold run
  // would use, each analyzed text under its own content's scope, and
  // each class's clustering under its name's. So a carried version or a
  // kept tree is what a cold run rebuilds, and the session lands on the
  // cold run's exact bytes.
  PipelineConfig Armed;
  Armed.Faults.Rate = 0.35;
  Armed.Faults.Seed = 4242;
  Armed.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter) |
      support::faultSiteBit(support::FaultSite::Clustering);
  // A clustering-only campaign leaves every record intact, so touched
  // classes do get repaired.
  PipelineConfig ClusteringOnly = Armed;
  ClusteringOnly.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Clustering);

  for (const PipelineConfig *Plan : {&Armed, &ClusteringOnly}) {
    std::string Oracle = coldJson(Changes, *Plan);
    for (unsigned Threads : {1u, 2u, 8u}) {
      SessionOptions Opts;
      Opts.Config = *Plan;
      Opts.Config.Threads = Threads;
      SessionStats Stats;
      EXPECT_EQ(sessionJson(splitBatches(Changes, 3), Opts, &Stats), Oracle)
          << Threads;
      if (Plan == &ClusteringOnly)
        EXPECT_GT(Stats.Lifetime.ClassesRepaired, 0u);
    }
  }
}

TEST(ServiceSession, ArmedClusteringKeepsTheTreesOfUngrownClasses) {
  // A class's clustering and Hungarian fault points depend only on the
  // class and its survivors, so under an armed campaign a class whose
  // survivors did not grow keeps its tree, as it does unarmed. Ingesting
  // the same changes twice touches the same classes with the same
  // survivors: the second ingest re-clusters nothing and evaluates no
  // clustering point, and the report still equals a cold run.
  std::vector<corpus::CodeChange> Changes = minedChanges(24, 7);
  support::FaultStats Faults;
  SessionOptions Opts;
  Opts.Config.Faults.Rate = 0.005;
  Opts.Config.Faults.Seed = 4242;
  Opts.Config.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Clustering) |
      support::faultSiteBit(support::FaultSite::Hungarian);
  Opts.Config.Faults.Stats = &Faults;
  AnalysisSession Session(api(), Opts);
  Session.ingest(Changes);
  // Every touched class has a tree to keep.
  for (const ClassReport &Class : Session.report().PerClass)
    ASSERT_TRUE(Class.ClusteringError.empty()) << Class.TargetClass;
  std::vector<std::size_t> Before = survivors(Session);
  const std::uint64_t First =
      Faults.evaluated(support::FaultSite::Clustering);
  IngestStats Second = Session.ingest(Changes);
  ASSERT_EQ(survivors(Session), Before);
  EXPECT_GT(Second.ClassesRepaired, 0u);
  EXPECT_GT(First, 0u);
  EXPECT_GT(Faults.totalFired(), 0u);
  EXPECT_EQ(Second.PairsComputed, 0u);
  EXPECT_EQ(Faults.evaluated(support::FaultSite::Clustering), First);

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  PipelineConfig Cold = Opts.Config;
  Cold.Faults.Stats = nullptr;
  EXPECT_EQ(Session.reportJson(), coldJson(Doubled, Cold));
}

TEST(ServiceSession, ContinuedHealthAndFiltersEqualRecountAfterEveryIngest) {
  // One commit per ingest, in-process and under an armed Parser +
  // Interpreter plan (so statuses vary). After every ingest the continued
  // health block and every class's continued filter result must equal a
  // recount over everything ingested so far.
  std::vector<corpus::CodeChange> Changes = minedChanges();
  std::vector<std::vector<corpus::CodeChange>> Commits =
      commitGroups(Changes);
  ASSERT_GE(Commits.size(), 20u);
  PipelineConfig Armed;
  Armed.Faults.Rate = 0.35;
  Armed.Faults.Seed = 4242;
  Armed.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter);

  for (const PipelineConfig &Config : {PipelineConfig(), Armed}) {
    SessionOptions Opts;
    Opts.Config = Config;
    AnalysisSession Session(api(), Opts);
    for (std::size_t C = 0; C < Commits.size(); ++C) {
      Session.ingest(Commits[C]);
      CorpusReport Recount = Session.report();
      computeCorpusHealth(Recount);
      ASSERT_TRUE(sameHealth(Session.report().Health, Recount.Health))
          << "commit " << C;
      for (const ClassReport &Class : Session.report().PerClass)
        ASSERT_TRUE(
            sameFilterResult(Class.Filtered, applyFilters(Class.AllChanges)))
            << Class.TargetClass << " after commit " << C;
    }
    EXPECT_EQ(Session.reportJson(), coldJson(Changes, Config));
    EXPECT_EQ(Session.report().Health.troubled() > 0,
              Config.Faults.enabled());
  }
}

TEST(ServiceSession, AppendedTreesEqualColdTreesNodeForNode) {
  // The report JSON leaves the dendrograms out, so byte-identity alone
  // cannot see a repaired tree drift from the cold one. Cold-ingest most
  // of a stream, append the rest one commit per ingest (the daemon's
  // IngestReq shape), then compare every class's tree node for node.
  // The last 160 commits include appends that grow a class's survivors,
  // so some repaired trees are re-clustered and the rest are kept.
  std::vector<corpus::CodeChange> Changes = minedChanges(60, 42);
  std::vector<std::vector<corpus::CodeChange>> Commits =
      commitGroups(Changes);
  const std::size_t Appended = 160;
  ASSERT_GT(Commits.size(), Appended);
  std::vector<corpus::CodeChange> Head;
  for (std::size_t C = 0; C + Appended < Commits.size(); ++C)
    Head.insert(Head.end(), Commits[C].begin(), Commits[C].end());

  for (unsigned Threads : {1u, 8u}) {
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    AnalysisSession Session(api(), Opts);
    Session.ingest(Head);
    std::size_t Repaired = 0, Grew = 0;
    for (std::size_t C = Commits.size() - Appended; C < Commits.size(); ++C) {
      std::vector<std::size_t> Before = survivors(Session);
      IngestStats Stats = Session.ingest(Commits[C]);
      Repaired += Stats.ClassesRepaired;
      if (survivors(Session) != Before) {
        // A grown class re-clusters, computing its matrix afresh.
        ++Grew;
        EXPECT_GT(Stats.PairsComputed, 0u) << "commit " << C;
      } else {
        // Unchanged survivors keep their trees: no matrix is rebuilt.
        EXPECT_EQ(Stats.PairsComputed, 0u) << "commit " << C;
      }
    }
    EXPECT_GT(Repaired, 0u);
    EXPECT_GT(Grew, 0u);

    PipelineRequest Request;
    for (const corpus::CodeChange &Change : Changes)
      Request.Changes.push_back(&Change);
    Request.TargetClasses = api().targetClasses();
    CorpusReport Cold = DiffCode(api(), Opts.Config).run(Request);

    const CorpusReport &Live = Session.report();
    ASSERT_EQ(Live.PerClass.size(), Cold.PerClass.size());
    std::size_t Leaves = 0;
    for (std::size_t I = 0; I < Cold.PerClass.size(); ++I) {
      const cluster::Dendrogram &Want = Cold.PerClass[I].Tree;
      const cluster::Dendrogram &Got = Live.PerClass[I].Tree;
      const std::string &Class = Cold.PerClass[I].TargetClass;
      ASSERT_EQ(Got.leafCount(), Want.leafCount()) << Class;
      ASSERT_EQ(Got.nodes().size(), Want.nodes().size()) << Class;
      EXPECT_EQ(Got.root(), Want.root()) << Class;
      for (std::size_t K = 0; K < Want.nodes().size(); ++K) {
        const cluster::Dendrogram::Node &X = Got.nodes()[K];
        const cluster::Dendrogram::Node &Y = Want.nodes()[K];
        EXPECT_EQ(X.Left, Y.Left) << Class << " node " << K;
        EXPECT_EQ(X.Right, Y.Right) << Class << " node " << K;
        EXPECT_EQ(X.Item, Y.Item) << Class << " node " << K;
        EXPECT_EQ(X.Height, Y.Height) << Class << " node " << K; // exact
      }
      Leaves += Want.leafCount();
    }
    EXPECT_GE(Leaves, 10u) << "too few kept changes to exercise clustering";
  }
}

TEST(ServiceSession, OneCommitIngestsReuseTheHistorysLastVersion) {
  // Cold-ingest half a stream, then append the rest one commit per ingest,
  // each from a vector destroyed before the next ingest, so a carried
  // version must own its text. Every record must equal processChange's,
  // and each ingest must serve again exactly the versions its texts
  // allow: an old side equal to its history's last new side, and a new
  // side equal to its own old side or to that text. The changes are
  // classified, so carried facts are read too.
  std::vector<corpus::CodeChange> Changes = minedChanges(60, 42);
  std::vector<std::vector<corpus::CodeChange>> Commits =
      commitGroups(Changes);
  const std::size_t Half = Commits.size() / 2;
  std::vector<corpus::CodeChange> Head;
  for (std::size_t C = 0; C < Half; ++C)
    Head.insert(Head.end(), Commits[C].begin(), Commits[C].end());
  std::vector<const rules::Rule *> Rules;
  for (const rules::Rule &R : rules::elicitedRules())
    Rules.push_back(&R);

  // The versions each appended commit may serve again, from the texts
  // alone: the last new side of every file history so far.
  std::map<std::pair<std::string, std::string>, std::string> LastNew;
  for (const corpus::CodeChange &Change : Head)
    LastNew[{Change.ProjectName, Change.FileName}] = Change.NewCode;
  std::vector<std::uint64_t> Servable;
  std::uint64_t OldSidesServable = 0;
  for (std::size_t C = Half; C < Commits.size(); ++C) {
    std::uint64_t N = 0;
    std::set<std::pair<std::string, std::string>> InCommit;
    for (const corpus::CodeChange &Change : Commits[C]) {
      std::pair<std::string, std::string> History{Change.ProjectName,
                                                  Change.FileName};
      ASSERT_TRUE(InCommit.insert(History).second)
          << "a commit changes a file once";
      auto It = LastNew.find(History);
      const bool OldServable =
          It != LastNew.end() && Change.OldCode == It->second;
      OldSidesServable += OldServable;
      N += OldServable;
      N += Change.NewCode == Change.OldCode ||
           (It != LastNew.end() && Change.NewCode == It->second);
      LastNew[History] = Change.NewCode;
    }
    Servable.push_back(N);
  }
  ASSERT_GT(OldSidesServable, (Commits.size() - Half) / 2)
      << "most appended old sides are their history's last new side";

  for (unsigned Threads : {1u, 2u, 8u}) {
    obs::Observer Obs;
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    Opts.ClassifyWith = Rules;
    Opts.Metrics = &Obs;
    AnalysisSession Session(api(), Opts);
    Session.ingest(Head);
    DiffCode Oracle(api(), Opts.Config);
    for (std::size_t C = Half; C < Commits.size(); ++C) {
      const std::optional<std::uint64_t> Before =
          counterValue(Obs, "pipeline.versions_reused");
      const std::size_t First = Session.size();
      {
        std::vector<corpus::CodeChange> Commit = Commits[C];
        Session.ingest(Commit);
      }
      const std::optional<std::uint64_t> After =
          counterValue(Obs, "pipeline.versions_reused");
      ASSERT_TRUE(Before && After) << "an observed ingest counts reuse";
      ASSERT_EQ(*After - *Before, Servable[C - Half])
          << "commit " << C << " at " << Threads << " threads";
      ASSERT_EQ(Session.size(), First + Commits[C].size());
      for (std::size_t I = 0; I < Commits[C].size(); ++I)
        ASSERT_EQ(changeRecordToJson(Session.report().Changes[First + I]),
                  changeRecordToJson(Oracle.processChange(
                      Commits[C][I], api().targetClasses(), Rules,
                      *Oracle.labels())))
            << "commit " << C << " change " << I;
    }
    EXPECT_EQ(Session.reportJson(), coldJson(Changes, Opts.Config)) << Threads;
  }
}

TEST(ServiceSession, MetricsFlowThroughObserver) {
  // The two halves of a stream whose tail grows a class's survivors (see
  // GrownClassesReclusterFromScratch), so the second ingest re-clusters a
  // class.
  std::vector<corpus::CodeChange> Changes = minedChanges(24, 7);
  std::size_t Half = Changes.size() / 2;
  std::vector<corpus::CodeChange> Head(Changes.begin(),
                                       Changes.begin() + Half);
  std::vector<corpus::CodeChange> Tail(Changes.begin() + Half,
                                       Changes.end());
  obs::Observer Obs;
  SessionOptions Opts;
  Opts.Metrics = &Obs;
  AnalysisSession Session(api(), std::move(Opts));
  IngestStats First = Session.ingest(Head);
  IngestStats Second = Session.ingest(Tail);

  obs::Snapshot Snap = Obs.Metrics.snapshot();
  auto Counter = [&](const std::string &Name) -> std::uint64_t {
    for (const obs::MetricValue &V : Snap.Values)
      if (V.Name == Name)
        return V.Count;
    return ~std::uint64_t(0);
  };
  EXPECT_EQ(Counter("service.ingests"), 2u);
  EXPECT_EQ(Counter("service.changes"), Changes.size());
  // The repair counters are the two ingests' IngestStats, summed.
  EXPECT_GT(First.ClassesRepaired, 0u);
  EXPECT_EQ(Counter("service.classes.repaired"),
            First.ClassesRepaired + Second.ClassesRepaired);
  EXPECT_EQ(Counter("service.classes.reused"),
            First.ClassesReused + Second.ClassesReused);
  // Each ingest's analysis is observed as a cold analyzeChanges is: every
  // change's two versions are either analyzed or served again.
  const std::optional<std::uint64_t> Analyzed =
      counterValue(Obs, "pipeline.versions_analyzed");
  const std::optional<std::uint64_t> Reused =
      counterValue(Obs, "pipeline.versions_reused");
  ASSERT_TRUE(Analyzed && Reused);
  EXPECT_EQ(*Analyzed + *Reused, 2 * Changes.size());
  // The session keeps no record memo and no pair tables, so no
  // service.cache.* or service.pairs.* metric.
  for (const obs::MetricValue &V : Snap.Values) {
    EXPECT_NE(V.Name.rfind("service.cache.", 0), 0u) << V.Name;
    EXPECT_NE(V.Name.rfind("service.pairs.", 0), 0u) << V.Name;
  }
}
