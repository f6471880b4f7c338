//===- service/AnalysisSession.cpp -----------------------------------------===//

#include "service/AnalysisSession.h"

#include "core/ReportWriter.h"

#include <iterator>
#include <utility>

using namespace diffcode;
using namespace diffcode::service;

namespace {

/// True when no armed campaign could fire inside per-change analysis or
/// clustering (see AnalysisSession::CachingSafe). The Proc* and
/// scan-project sites only exist in exec workers and the scanner, which
/// the session never runs.
bool cachingSafeUnder(const support::FaultPlan &Plan) {
  const std::uint32_t UnsafeSites =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter) |
      support::faultSiteBit(support::FaultSite::Hungarian) |
      support::faultSiteBit(support::FaultSite::Clustering);
  return !(Plan.enabled() && (Plan.SiteMask & UnsafeSites) != 0);
}

} // namespace

AnalysisSession::AnalysisSession(const apimodel::CryptoApiModel &Api,
                                 SessionOptions Options)
    : Opts(std::move(Options)), System(Api, Opts.Config),
      TargetClasses(Api.targetClasses()),
      CachingSafe(cachingSafeUnder(Opts.Config.Faults)) {
  Report.Labels = System.labels();
  // Start from the empty-corpus report a cold run over zero changes
  // produces: one ClassReport per target class (empty filter result,
  // empty tree) plus the all-zero health block.
  for (const std::string &Class : TargetClasses) {
    Report.PerClass.push_back(System.filterClass({}, Class));
    Seen.emplace_back();
  }
  Report.Health = Tally.health(Report);
}

AnalysisSession::~AnalysisSession() = default;

IngestStats
AnalysisSession::ingest(const std::vector<corpus::CodeChange> &Changes) {
  obs::Span IngestSpan(Opts.Metrics ? &Opts.Metrics->Trace : nullptr,
                       "session.ingest");
  IngestStats Stats;
  Stats.Ingested = Changes.size();
  const std::size_t FirstNewRecord = Report.Changes.size();

  // The batch pipeline's analysis stage, each change under the fault
  // scope of its *global* corpus index: a cold run over the whole
  // accumulated change list scopes change G with key G, so the session
  // must too for armed campaigns to land identically. The carry lets a
  // change's old side reuse its history's new side from an earlier ingest.
  core::PipelineRequest Batch;
  Batch.Changes.reserve(Changes.size());
  for (const corpus::CodeChange &Change : Changes)
    Batch.Changes.push_back(&Change);
  Batch.TargetClasses = TargetClasses;
  Batch.ClassifyWith = Opts.ClassifyWith;
  Batch.Metrics = Opts.Metrics;
  std::vector<core::ChangeRecord> Records =
      System.analyzeChanges(Batch, FirstNewRecord, &Carry);
  Report.Changes.insert(Report.Changes.end(),
                        std::make_move_iterator(Records.begin()),
                        std::make_move_iterator(Records.end()));

  // Repair exactly the classes the new records contribute to; every
  // other ClassReport is already byte-for-byte what a cold run would
  // rebuild (its inputs did not change).
  for (std::size_t C = 0; C < TargetClasses.size(); ++C) {
    bool Touched = false;
    for (std::size_t R = FirstNewRecord; R < Report.Changes.size() && !Touched;
         ++R)
      Touched = Report.Changes[R].PerClass.count(TargetClasses[C]) > 0;
    if (Touched) {
      repairClass(C, FirstNewRecord, Stats);
      ++Stats.ClassesRepaired;
    } else {
      ++Stats.ClassesReused;
    }
  }

  Tally.extend(Report.Changes);
  Report.Health = Tally.health(Report);

  ++Ingests;
  Lifetime.Ingested += Stats.Ingested;
  Lifetime.ClassesRepaired += Stats.ClassesRepaired;
  Lifetime.ClassesReused += Stats.ClassesReused;
  recordMetrics(Stats);
  return Stats;
}

void AnalysisSession::repairClass(std::size_t ClassIndex,
                                  std::size_t FirstNewRecord,
                                  IngestStats &Stats) {
  core::ClassReport &Class = Report.PerClass[ClassIndex];

  // Gather: AllChanges is append-only in record order, so extending it
  // with the new records' contributions reproduces what filterClass
  // would gather from scratch.
  for (std::size_t R = FirstNewRecord; R < Report.Changes.size(); ++R) {
    auto It = Report.Changes[R].PerClass.find(Class.TargetClass);
    if (It == Report.Changes[R].PerClass.end())
      continue;
    Class.AllChanges.insert(Class.AllChanges.end(), It->second.begin(),
                            It->second.end());
  }
  // Filter: continue the previous ingest's result over the new usage
  // changes only, against the class's seen-set.
  const std::size_t SurvivorsBefore = Class.Filtered.Kept.size();
  core::continueFilters(Class.AllChanges, Class.Filtered, Seen[ClassIndex]);

  // Survivors are append-only, so an unchanged count means unchanged
  // survivors: the same matrix and the same tree. A failed clustering is
  // retried, and under an armed campaign (!CachingSafe) the class
  // re-clusters anyway, as a cold run would.
  if (CachingSafe && Class.Filtered.Kept.size() == SurvivorsBefore &&
      Class.ClusteringError.empty())
    return;

  System.clusterClass(Class);
  const std::uint64_t N = Class.Filtered.Kept.size();
  Stats.PairsComputed += N * (N - 1) / 2;
}

std::string AnalysisSession::reportJson() const {
  return core::corpusReportToJson(Report);
}

SessionStats AnalysisSession::stats() const {
  SessionStats Out;
  Out.TotalChanges = Report.Changes.size();
  Out.Ingests = Ingests;
  Out.Lifetime = Lifetime;
  return Out;
}

void AnalysisSession::recordMetrics(const IngestStats &Stats) const {
  if (!Opts.Metrics)
    return;
  obs::Registry &R = Opts.Metrics->Metrics;
  R.counter("service.ingests").add(1);
  R.counter("service.changes").add(Stats.Ingested);
  R.counter("service.classes.repaired").add(Stats.ClassesRepaired);
  R.counter("service.classes.reused").add(Stats.ClassesReused);
}
