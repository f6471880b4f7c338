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
/// the same order — at any thread count, under any cache bound (the
/// bound changes cost, never bytes), with the ServiceHash fault site
/// collapsing the primary content hash, and with an armed in-process
/// fault plan (where the session bypasses its caches entirely rather
/// than memoize nondeterministic outcomes). The JSON leaves the
/// dendrograms out, so repaired trees are also compared node for node.
///
//===----------------------------------------------------------------------===//

#include "service/AnalysisSession.h"

#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"

#include <gtest/gtest.h>

#include <string>
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

TEST(ServiceSession, CacheBoundNeverChangesBytesAndEvictsDeterministically) {
  std::vector<corpus::CodeChange> Changes = minedChanges();
  std::string Oracle = coldJson(Changes);

  SessionStats Reference;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    Opts.MaxCachedChanges = 7; // far below the stream size
    SessionStats Stats;
    EXPECT_EQ(sessionJson(splitBatches(Changes, 4), Opts, &Stats), Oracle)
        << Threads;
    EXPECT_GT(Stats.Lifetime.Evictions, 0u);
    EXPECT_LE(Stats.CachedRecords, 7u);
    // FIFO eviction is keyed in batch order on one thread, so the
    // eviction trace is a function of the stream, not the pool width.
    if (Threads == 1u)
      Reference = Stats;
    else {
      EXPECT_EQ(Stats.Lifetime.Evictions, Reference.Lifetime.Evictions);
      EXPECT_EQ(Stats.Lifetime.CacheHits, Reference.Lifetime.CacheHits);
      EXPECT_EQ(Stats.CachedRecords, Reference.CachedRecords);
    }
  }
}

TEST(ServiceSession, ReplayedBatchIsServedFromCache) {
  std::vector<corpus::CodeChange> Changes = minedChanges(6, 7);
  ASSERT_FALSE(Changes.empty());

  AnalysisSession Session(api(), SessionOptions());
  IngestStats First = Session.ingest(Changes);
  EXPECT_EQ(First.CacheHits, 0u);
  EXPECT_EQ(First.CacheMisses, Changes.size());

  // The same content arriving again (a re-landed commit) must be served
  // entirely from the memo table — and still produce exactly the bytes
  // of a cold run over the doubled stream.
  IngestStats Second = Session.ingest(Changes);
  EXPECT_EQ(Second.CacheHits, Changes.size());
  EXPECT_EQ(Second.CacheMisses, 0u);

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  EXPECT_EQ(Session.reportJson(), coldJson(Doubled));

  SessionStats Stats = Session.stats();
  EXPECT_EQ(Stats.TotalChanges, Doubled.size());
  EXPECT_EQ(Stats.Ingests, 2u);
  EXPECT_EQ(Stats.Lifetime.CacheHits + Stats.Lifetime.CacheMisses,
            Doubled.size());
}

TEST(ServiceSession, IncrementalRepairReusesPairDistances) {
  std::vector<corpus::CodeChange> Changes = minedChanges(16, 3);
  ASSERT_GE(Changes.size(), 40u);
  std::size_t Half = Changes.size() / 2;
  std::vector<corpus::CodeChange> Head(Changes.begin(),
                                       Changes.begin() + Half);
  std::vector<corpus::CodeChange> Tail(Changes.begin() + Half,
                                       Changes.end());

  AnalysisSession Session(api(), SessionOptions());
  IngestStats Warm = Session.ingest(Head);
  IngestStats Append = Session.ingest(Tail);

  // The warm ingest computed every pair fresh; the append repairs the
  // touched classes and must serve the old-old block of each distance
  // matrix from the persisted tables instead of recomputing it.
  EXPECT_GT(Warm.PairsComputed, 0u);
  EXPECT_GT(Append.ClassesRepaired, 0u);
  EXPECT_GT(Append.PairsReused, 0u);
  EXPECT_EQ(Session.reportJson(), coldJson(Changes));
}

TEST(ServiceSession, ServiceHashCollisionsDegradeSelectivityNotCorrectness) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  // Every keyFor evaluation fires: the primary content hash collapses
  // to a constant and all memo entries collide into one bucket chain.
  // The secondary hash + length pair must still discriminate.
  PipelineConfig Armed;
  Armed.Faults.Rate = 1.0;
  Armed.Faults.Seed = 99;
  Armed.Faults.SiteMask = support::faultSiteBit(support::FaultSite::ServiceHash);

  SessionOptions Opts;
  Opts.Config = Armed;
  AnalysisSession Session(api(), Opts);
  Session.ingest(Changes);
  IngestStats Replay = Session.ingest(Changes);
  // A collided cache must still *hit* (H2 + lengths discriminate), not
  // fall back to re-analysis.
  EXPECT_EQ(Replay.CacheHits, Changes.size());

  std::vector<corpus::CodeChange> Doubled = Changes;
  Doubled.insert(Doubled.end(), Changes.begin(), Changes.end());
  // ServiceHash is never evaluated on the cold path, so the oracle with
  // the same plan is exactly the unfaulted batch report.
  EXPECT_EQ(Session.reportJson(), coldJson(Doubled, Armed));
}

TEST(ServiceSession, ArmedAnalysisFaultsBypassCachesAndStayByteIdentical) {
  std::vector<corpus::CodeChange> Changes = minedChanges();

  // In-process analysis faults make per-change outcomes a function of
  // the fault campaign, so memoizing them would be wrong; the session
  // must fall back to straight re-analysis under the same global-index
  // FaultScope a cold run would use — and land on its exact bytes.
  PipelineConfig Armed;
  Armed.Faults.Rate = 0.35;
  Armed.Faults.Seed = 4242;
  Armed.Faults.SiteMask =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter) |
      support::faultSiteBit(support::FaultSite::Clustering);
  std::string Oracle = coldJson(Changes, Armed);

  for (unsigned Threads : {1u, 2u, 8u}) {
    SessionOptions Opts;
    Opts.Config = Armed;
    Opts.Config.Threads = Threads;
    SessionStats Stats;
    EXPECT_EQ(sessionJson(splitBatches(Changes, 3), Opts, &Stats), Oracle)
        << Threads;
    EXPECT_EQ(Stats.Lifetime.CacheHits, 0u);
    EXPECT_EQ(Stats.CachedRecords, 0u);
  }
}

TEST(ServiceSession, AppendedTreesEqualColdTreesNodeForNode) {
  // The report JSON leaves the dendrograms out, so byte-identity alone
  // cannot see a repaired tree drift from the cold one. Cold-ingest most
  // of a stream, append the rest one commit per ingest (the daemon's
  // IngestReq shape), then compare every class's tree node for node.
  std::vector<corpus::CodeChange> Changes = minedChanges(60, 42);
  std::vector<std::vector<corpus::CodeChange>> Commits =
      commitGroups(Changes);
  ASSERT_GE(Commits.size(), 60u);
  const std::size_t Appended = 40;
  std::vector<corpus::CodeChange> Head;
  for (std::size_t C = 0; C + Appended < Commits.size(); ++C)
    Head.insert(Head.end(), Commits[C].begin(), Commits[C].end());

  for (unsigned Threads : {1u, 8u}) {
    SessionOptions Opts;
    Opts.Config.Threads = Threads;
    AnalysisSession Session(api(), Opts);
    Session.ingest(Head);
    IngestStats Appends;
    for (std::size_t C = Commits.size() - Appended; C < Commits.size(); ++C) {
      IngestStats Stats = Session.ingest(Commits[C]);
      Appends.ClassesRepaired += Stats.ClassesRepaired;
      Appends.PairsReused += Stats.PairsReused;
    }
    // The appends went through the pair-table repair, not a cold rebuild.
    EXPECT_GT(Appends.ClassesRepaired, 0u);
    EXPECT_GT(Appends.PairsReused, 0u);

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

TEST(ServiceSession, MetricsFlowThroughObserver) {
  std::vector<corpus::CodeChange> Changes = minedChanges(6, 7);
  obs::Observer Obs;
  SessionOptions Opts;
  Opts.Metrics = &Obs;
  AnalysisSession Session(api(), std::move(Opts));
  Session.ingest(Changes);
  Session.ingest(Changes);

  obs::Snapshot Snap = Obs.Metrics.snapshot();
  auto Counter = [&](const std::string &Name) -> std::uint64_t {
    for (const obs::MetricValue &V : Snap.Values)
      if (V.Name == Name)
        return V.Count;
    return ~std::uint64_t(0);
  };
  EXPECT_EQ(Counter("service.ingests"), 2u);
  EXPECT_EQ(Counter("service.changes"), 2 * Changes.size());
  EXPECT_EQ(Counter("service.cache.hits"), Changes.size());
  EXPECT_EQ(Counter("service.cache.misses"), Changes.size());
}
