//===- service/AnalysisSession.cpp -----------------------------------------===//

#include "service/AnalysisSession.h"

#include "cluster/Distance.h"
#include "core/ReportWriter.h"

#include <iterator>
#include <map>
#include <unordered_map>
#include <utility>

using namespace diffcode;
using namespace diffcode::service;

/// Per-class incremental state. Kept items are append-only across
/// ingests (fsame/fadd/frem are per-item and fdup keeps *first*
/// occurrences, so appending changes never evicts a survivor), which is
/// what makes the continued filter result and a persistent pair table
/// sound: old survivors and old pairs stay valid forever, an ingest only
/// adds new ones.
struct AnalysisSession::ClassState {
  /// fdup's seen-set over the class's survivors so far, so an ingest
  /// filters only its own usage changes (core::continueFilters).
  core::FilterSeen Seen;
  /// Feature signature (exact Removed/Added id vectors) -> dense
  /// signature id. fdup guarantees Kept signatures are distinct within a
  /// class, so a signature id identifies exactly one kept item for the
  /// session's lifetime. Ids are internal bookkeeping only — they never
  /// reach the report, so their dependence on interner id values is fine
  /// (support/Interner.h determinism contract).
  std::map<std::pair<std::vector<support::PathId>, std::vector<support::PathId>>,
           std::uint32_t>
      SigIds;
  /// (lo signature id << 32 | hi) -> usageDist. Distances depend only on
  /// the two feature sets, so the table survives any amount of
  /// re-filtering.
  std::unordered_map<std::uint64_t, double> PairDist;

  std::uint32_t idFor(const usage::UsageChange &Change) {
    auto It = SigIds.emplace(std::make_pair(Change.Removed, Change.Added),
                             std::uint32_t(SigIds.size()));
    return It.first->second;
  }

  static std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
    if (A > B)
      std::swap(A, B);
    return (std::uint64_t(A) << 32) | B;
  }
};

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
    Classes.push_back(std::make_unique<ClassState>());
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
  // must too for armed campaigns to land identically.
  core::PipelineRequest Batch;
  Batch.Changes.reserve(Changes.size());
  for (const corpus::CodeChange &Change : Changes)
    Batch.Changes.push_back(&Change);
  Batch.TargetClasses = TargetClasses;
  Batch.ClassifyWith = Opts.ClassifyWith;
  std::vector<core::ChangeRecord> Records =
      System.analyzeChanges(Batch, FirstNewRecord);
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
  Lifetime.PairsComputed += Stats.PairsComputed;
  Lifetime.PairsReused += Stats.PairsReused;
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
  ClassState &State = *Classes[ClassIndex];
  const std::size_t SurvivorsBefore = Class.Filtered.Kept.size();
  core::continueFilters(Class.AllChanges, Class.Filtered, State.Seen);

  // Cold fallback: armed analysis campaigns must evaluate every fault
  // point a cold run would.
  if (!CachingSafe) {
    System.clusterClass(Class);
    return;
  }

  // Survivors are append-only, so an unchanged count means unchanged
  // survivors: the same matrix and the same tree. A failed clustering is
  // retried, as a cold run would.
  if (Class.Filtered.Kept.size() == SurvivorsBefore &&
      Class.ClusteringError.empty())
    return;

  // Incremental re-cluster: rebuild the dense matrix from the persisted
  // pair table, computing only pairs never seen before (for an append
  // ingest that is one thin border strip of the matrix), then hand it to
  // the batch engine's clustering step. usageDist is a pure function of
  // the two feature sets and the cold matrix evaluates it per pair too,
  // so every looked-up entry matches what the cold matrix would hold —
  // and identical matrices agglomerate into identical dendrograms.
  const std::vector<usage::UsageChange> &Kept = Class.Filtered.Kept;
  System.clusterClass(Class, [&] {
    const std::size_t N = Kept.size();
    std::vector<std::uint32_t> Sig(N);
    for (std::size_t I = 0; I < N; ++I)
      Sig[I] = State.idFor(Kept[I]);
    std::vector<double> Matrix(N * N, 0.0);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = I + 1; J < N; ++J) {
        std::uint64_t Key = ClassState::pairKey(Sig[I], Sig[J]);
        auto It = State.PairDist.find(Key);
        if (It == State.PairDist.end()) {
          It = State.PairDist
                   .emplace(Key, cluster::usageDist(Kept[I], Kept[J]))
                   .first;
          ++Stats.PairsComputed;
        } else {
          ++Stats.PairsReused;
        }
        Matrix[I * N + J] = Matrix[J * N + I] = It->second;
      }
    return Matrix;
  });
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
  R.counter("service.pairs.computed").add(Stats.PairsComputed);
  R.counter("service.pairs.reused").add(Stats.PairsReused);
}
