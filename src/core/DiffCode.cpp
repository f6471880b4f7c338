//===- core/DiffCode.cpp ---------------------------------------------------===//

#include "core/DiffCode.h"

#include "exec/Supervisor.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

using namespace diffcode;
using namespace diffcode::core;

const char *core::changeStatusName(ChangeStatus Status) {
  switch (Status) {
  case ChangeStatus::Ok:
    return "ok";
  case ChangeStatus::Degraded:
    return "degraded";
  case ChangeStatus::ParseError:
    return "parse-error";
  case ChangeStatus::BudgetExceeded:
    return "budget-exceeded";
  case ChangeStatus::AnalysisThrow:
    return "analysis-throw";
  case ChangeStatus::WorkerCrash:
    return "worker-crash";
  case ChangeStatus::WorkerTimeout:
    return "worker-timeout";
  case ChangeStatus::WorkerOom:
    return "worker-oom";
  }
  return "unknown";
}

std::size_t CorpusHealth::troubled() const {
  std::size_t N = 0;
  for (std::size_t I = 1; I < NumChangeStatuses; ++I)
    N += StatusCounts[I];
  return N;
}

void HealthTally::extend(const std::vector<ChangeRecord> &Records) {
  // Candidates: the current offenders plus every new record that used
  // steps. Order: steps descending, then origin, then record index. Every
  // file of a commit shares its origin, so the index is what makes the
  // order total; without it, tied records of one commit would come out in
  // an order set by the sort's internals, and the top of the longer list
  // would not follow from the top of the shorter one.
  std::vector<std::size_t> Order = std::move(Worst);
  for (std::size_t I = Tallied; I < Records.size(); ++I) {
    ++StatusCounts[static_cast<std::size_t>(Records[I].Status)];
    if (Records[I].StepsUsed > 0)
      Order.push_back(I);
  }
  Tallied = Records.size();
  std::size_t Top = std::min(MaxOffenders, Order.size());
  std::partial_sort(Order.begin(), Order.begin() + Top, Order.end(),
                    [&Records](std::size_t A, std::size_t B) {
                      const ChangeRecord &RA = Records[A], &RB = Records[B];
                      if (RA.StepsUsed != RB.StepsUsed)
                        return RA.StepsUsed > RB.StepsUsed;
                      if (RA.Origin != RB.Origin)
                        return RA.Origin < RB.Origin;
                      return A < B;
                    });
  Order.resize(Top);
  Worst = std::move(Order);
}

CorpusHealth HealthTally::health(const CorpusReport &Report) const {
  CorpusHealth Health;
  Health.StatusCounts = StatusCounts;
  for (const ClassReport &Class : Report.PerClass)
    if (!Class.ClusteringError.empty())
      ++Health.ClusteringFailures;
  for (std::size_t I : Worst) {
    const ChangeRecord &Record = Report.Changes[I];
    Health.WorstOffenders.push_back(WorstOffender{
        Record.Origin, Record.StepsUsed, Record.Status, Record.WallNanos});
  }
  return Health;
}

void core::computeCorpusHealth(CorpusReport &Report, std::size_t MaxOffenders) {
  HealthTally Tally(MaxOffenders);
  Tally.extend(Report.Changes);
  Report.Health = Tally.health(Report);
}

DiffCode::DiffCode(const apimodel::CryptoApiModel &Api)
    : DiffCode(Api, PipelineConfig()) {}

DiffCode::DiffCode(const apimodel::CryptoApiModel &Api, PipelineConfig Config)
    : Api(Api), Config(Config), Labels(std::make_shared<support::Interner>()) {}

DiffCode::SourceAnalysis
DiffCode::analyzeSourceChecked(std::string_view Source) const {
  java::AstContext Ctx;
  return analyzeSourceChecked(Source, Ctx);
}

DiffCode::SourceAnalysis
DiffCode::analyzeSourceChecked(std::string_view Source,
                               java::AstContext &Ctx) const {
  SourceAnalysis Out;
  if (Source.empty())
    return Out;
  // Parse and interpretation faults follow the text, so a version faults
  // the same way whichever change, unit, ingest or project analyzes it.
  const support::FaultPlan *Plan = support::FaultContext::current().Plan;
  support::FaultScope Scope(Plan, Plan ? support::fnv1a64(Source) : 0);
  Ctx.reset();
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit =
      java::parseJava(Source, Ctx, Diags, Config.Limits.Parse);
  auto FirstError = [&Diags]() -> std::string {
    for (const java::Diagnostic &D : Diags.all())
      if (D.Level == java::DiagLevel::Error)
        return D.str();
    return "unknown parse failure";
  };
  if (!Unit) {
    Out.Status = Diags.budgetExceeded() ? ChangeStatus::BudgetExceeded
                                        : ChangeStatus::ParseError;
    Out.Detail = FirstError();
    return Out;
  }
  analysis::AbstractInterpreter Interp(Api, Config.Limits.Analysis);
  Out.Result = Interp.analyze(Unit);
  if (Out.Result.Stats.anyBudgetHit()) {
    Out.Status = ChangeStatus::BudgetExceeded;
    const analysis::AnalysisStats &Stats = Out.Result.Stats;
    Out.Detail = Stats.FuelExhausted     ? "interpreter fuel exhausted"
                 : Stats.ObjectBudgetHit ? "abstract-object cap hit"
                                         : "usage-event cap hit";
  } else if (Diags.hasErrors()) {
    Out.Status = ChangeStatus::Degraded;
    Out.Detail = FirstError();
  }
  return Out;
}

namespace {

/// The usage DAGs of each of \p Classes, each list as dagsForClass returns
/// it, from one walk over \p Result's executions: each object's class is
/// looked up once, and only objects of a requested class get a DAG.
std::vector<std::vector<usage::UsageDag>>
dagsForClasses(const analysis::AnalysisResult &Result,
               std::span<const std::string> Classes, unsigned DagDepth) {
  constexpr std::size_t None = SIZE_MAX;
  // Each object's index in Classes; a class listed twice gets its first
  // index here and a copy of that list at the end.
  std::vector<std::size_t> ClassOf(Result.Objects.size(), None);
  for (const analysis::AbstractObject &Obj : Result.Objects.all())
    for (std::size_t C = 0; C < Classes.size(); ++C)
      if (Obj.TypeName == Classes[C]) {
        ClassOf[Obj.Id] = C;
        break;
      }

  std::vector<std::vector<usage::UsageDag>> Dags(Classes.size());
  // Kept DAGs by identity hash, as (class, index); a hash match counts as
  // a duplicate only when the canonical strings agree too.
  std::unordered_multimap<std::uint64_t, std::pair<std::size_t, std::size_t>>
      Kept;
  for (const analysis::UsageLog &Log : Result.Executions)
    for (const auto &[ObjId, Events] : Log) {
      const std::size_t C = ClassOf[ObjId];
      if (Events.empty() || C == None)
        continue;
      usage::UsageDag Dag =
          usage::UsageDag::build(Result.Objects, Log, ObjId, DagDepth);
      auto [First, Last] = Kept.equal_range(Dag.canonicalHash());
      if (std::any_of(First, Last, [&](const auto &Entry) {
            return Entry.second.first == C &&
                   Dags[C][Entry.second.second].sameIdentity(Dag);
          }))
        continue;
      Kept.emplace(Dag.canonicalHash(), std::make_pair(C, Dags[C].size()));
      Dags[C].push_back(std::move(Dag));
    }
  for (std::size_t C = 0; C < Classes.size(); ++C)
    for (std::size_t Earlier = 0; Earlier < C; ++Earlier)
      if (Classes[Earlier] == Classes[C]) {
        Dags[C] = Dags[Earlier];
        break;
      }
  return Dags;
}

} // namespace

std::vector<usage::UsageDag>
DiffCode::dagsForClass(const analysis::AnalysisResult &Result,
                       const std::string &TargetClass) const {
  return std::move(dagsForClasses(Result, std::span(&TargetClass, 1),
                                  Config.Limits.DagDepth)
                       .front());
}

AnalyzedVersion
DiffCode::analyzeVersion(std::string_view Source, java::AstContext &Ctx,
                         const std::vector<std::string> &DagClasses,
                         const std::vector<const rules::Rule *> &ClassifyWith,
                         VersionFacts Facts) const {
  SourceAnalysis SA = analyzeSourceChecked(Source, Ctx);
  AnalyzedVersion Out;
  Out.Status = SA.Status;
  Out.Detail = std::move(SA.Detail);
  Out.Stats = SA.Result.Stats;
  Out.Dags = dagsForClasses(SA.Result, DagClasses, Config.Limits.DagDepth);
  if (ClassifyWith.empty() && Facts == VersionFacts::None)
    return Out;
  rules::UnitFacts Digest =
      rules::UnitFacts::from(SA.Result, Facts == VersionFacts::Executions);
  Out.Verdicts.reserve(ClassifyWith.size());
  for (const rules::Rule *R : ClassifyWith)
    Out.Verdicts.push_back(rules::unitVerdict(*R, Digest));
  if (Facts != VersionFacts::None)
    Out.Facts = std::move(Digest);
  return Out;
}

std::vector<usage::UsageChange>
DiffCode::usageChangesFor(const corpus::CodeChange &Change,
                          const std::string &TargetClass) const {
  java::AstContext Ctx; // shared across both versions (reset in between)
  const std::vector<std::string> Classes{TargetClass};
  AnalyzedVersion Old = analyzeVersion(Change.OldCode, Ctx, Classes, {});
  AnalyzedVersion New = analyzeVersion(Change.NewCode, Ctx, Classes, {});
  std::vector<usage::UsageChange> Changes = usage::deriveUsageChanges(
      Old.Dags[0], New.Dags[0], TargetClass, *Labels);
  for (usage::UsageChange &C : Changes)
    C.Origin = Change.origin();
  return Changes;
}

ChangeRecord DiffCode::assembleChange(
    const corpus::CodeChange &Change, const AnalyzedVersion &Old,
    const AnalyzedVersion &New, const std::vector<std::string> &TargetClasses,
    const std::vector<const rules::Rule *> &ClassifyWith,
    support::Interner &Table, obs::Registry *Reg) const {
  ChangeRecord Record;
  Record.Origin = Change.origin();
  Record.GroundTruthKind = Change.Kind;

  // Worst of the two versions wins; keep the detail of the losing side.
  const AnalyzedVersion &Worst = New.Status > Old.Status ? New : Old;
  Record.Status = Worst.Status;
  Record.StatusDetail = Worst.Detail;
  Record.StepsUsed = Old.Stats.StepsUsed + New.Stats.StepsUsed;

  if (Reg) {
    // All of these are pure functions of the change's source text, so
    // they stay in the deterministic snapshot projection.
    auto &Steps = Reg->histogram("analysis.steps_per_version");
    auto &Entries = Reg->histogram("analysis.entries_per_version");
    auto &Objects = Reg->histogram("analysis.objects_per_version");
    for (const AnalyzedVersion *Side : {&Old, &New}) {
      Steps.record(Side->Stats.StepsUsed);
      Entries.record(Side->Stats.Entries);
      Objects.record(Side->Stats.ObjectsTracked);
    }
    Reg->counter("analysis.steps_total").add(Record.StepsUsed);
    Reg->counter("analysis.fuel_exhausted")
        .add(unsigned(Old.Stats.FuelExhausted) +
             unsigned(New.Stats.FuelExhausted));
    Reg->counter("analysis.object_budget_hits")
        .add(unsigned(Old.Stats.ObjectBudgetHit) +
             unsigned(New.Stats.ObjectBudgetHit));
  }

  for (std::size_t C = 0; C < TargetClasses.size(); ++C) {
    std::vector<usage::UsageChange> Changes = usage::deriveUsageChanges(
        Old.Dags[C], New.Dags[C], TargetClasses[C], Table);
    for (usage::UsageChange &U : Changes)
      U.Origin = Record.Origin;
    if (Reg && !Changes.empty())
      Reg->counter("usage.changes").add(Changes.size());
    if (!Changes.empty())
      Record.PerClass.emplace(TargetClasses[C], std::move(Changes));
  }

  if (Old.Verdicts.size() != ClassifyWith.size() ||
      New.Verdicts.size() != ClassifyWith.size())
    throw std::invalid_argument(
        "assembleChange: a version carries no verdict per rule");
  for (std::size_t I = 0; I < ClassifyWith.size(); ++I)
    Record.Classification.emplace(
        ClassifyWith[I]->Id,
        rules::classifyChange(Old.Verdicts[I], New.Verdicts[I]));
  return Record;
}

namespace {

/// Runs \p Assemble, containing any escaping exception: the change then
/// contributes nothing, but its slot in the report survives with a
/// structured status — the rest of the corpus is unaffected.
template <typename Fn>
ChangeRecord containChange(const corpus::CodeChange &Change, Fn &&Assemble) {
  std::string Detail;
  try {
    return Assemble();
  } catch (const std::exception &E) {
    Detail = E.what();
  } catch (...) {
    Detail = "unknown exception";
  }
  ChangeRecord Record;
  Record.Origin = Change.origin();
  Record.GroundTruthKind = Change.Kind;
  Record.Status = ChangeStatus::AnalysisThrow;
  Record.StatusDetail = std::move(Detail);
  return Record;
}

} // namespace

ChangeRecord DiffCode::processChange(
    const corpus::CodeChange &Change,
    const std::vector<std::string> &TargetClasses,
    const std::vector<const rules::Rule *> &ClassifyWith,
    support::Interner &Table, obs::Registry *Reg) const {
  return containChange(Change, [&] {
    java::AstContext Ctx; // shared across both versions (reset in between)
    AnalyzedVersion Old =
        analyzeVersion(Change.OldCode, Ctx, TargetClasses, ClassifyWith);
    AnalyzedVersion New =
        analyzeVersion(Change.NewCode, Ctx, TargetClasses, ClassifyWith);
    return assembleChange(Change, Old, New, TargetClasses, ClassifyWith,
                          Table, Reg);
  });
}

std::vector<std::vector<std::uint64_t>>
core::fileHistories(const std::vector<const corpus::CodeChange *> &Changes) {
  std::map<std::pair<std::string_view, std::string_view>, std::size_t> Group;
  std::vector<std::vector<std::uint64_t>> Groups;
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    auto [It, Inserted] = Group.try_emplace(
        {Changes[I]->ProjectName, Changes[I]->FileName}, Groups.size());
    if (Inserted)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }
  return Groups;
}

VersionStore::VersionStore(const DiffCode &System,
                           const PipelineRequest &Request)
    : System(System), Request(Request) {}

void VersionStore::seed(const corpus::CodeChange &First,
                        const CarriedVersion &Carried) {
  if (!Carried.Version)
    return;
  Project = First.ProjectName;
  File = First.FileName;
  Prev = {Kept{}, Kept{Carried.Text, Carried.Version}};
}

void VersionStore::carry(CarriedVersion &Carried) const {
  // The same product means the same text; a side that threw has neither.
  if (Carried.Version == Prev[1].Version)
    return;
  Carried.Text = Prev[1].Text;
  Carried.Version = Prev[1].Version;
}

VersionStore::Kept VersionStore::version(std::string_view Text,
                                         const Kept &Sibling) {
  for (const Kept *K : {&Sibling, &std::as_const(Prev)[0],
                        &std::as_const(Prev)[1]})
    if (K->Version && K->Text == Text) {
      ++Reused;
      return *K;
    }
  ++Analyzed;
  return {Text, std::make_shared<const AnalyzedVersion>(System.analyzeVersion(
                    Text, Ctx, Request.TargetClasses, Request.ClassifyWith))};
}

ChangeRecord VersionStore::process(const corpus::CodeChange &Change,
                                   support::Interner &Table,
                                   obs::Registry *Reg) {
  if (Change.ProjectName != Project || Change.FileName != File) {
    Project = Change.ProjectName;
    File = Change.FileName;
    Prev = {};
  }
  // A side whose analysis throws stays empty, so it is never kept.
  std::array<Kept, 2> Cur;
  ChangeRecord Record = containChange(Change, [&] {
    Cur[0] = version(Change.OldCode, {});
    Cur[1] = version(Change.NewCode, Cur[0]);
    return System.assembleChange(Change, *Cur[0].Version, *Cur[1].Version,
                                 Request.TargetClasses, Request.ClassifyWith,
                                 Table, Reg);
  });
  Prev = std::move(Cur);
  return Record;
}

void VersionStore::recordCounts(obs::Registry &Reg) const {
  Reg.counter("pipeline.versions_analyzed").add(Analyzed);
  Reg.counter("pipeline.versions_reused").add(Reused);
}

std::vector<ChangeRecord>
DiffCode::analyzeChanges(const PipelineRequest &Request, std::size_t FirstIndex,
                         VersionCarry *Carry) const {
  std::vector<ChangeRecord> Records(Request.Changes.size());

  // The file after one commit is the file before the next, so a file
  // history is where versions repeat. Threads claim whole histories from
  // one shared cursor; each runs its history in change order through its
  // own store and writes into the history's own slots. Reuse comes from
  // an exact text match and each record equals processChange's, so the
  // grouping only picks the thread: the result (and therefore every
  // downstream number) is identical to the serial run for any thread
  // count.
  //
  // Workers intern into one shared table concurrently; id *values* are
  // therefore scheduling dependent, which is fine — everything downstream
  // is id-value independent (support/Interner.h, determinism contract).
  const std::vector<std::vector<std::uint64_t>> Groups =
      fileHistories(Request.Changes);
  // Each group's entry in the carry, made here so that every thread below
  // writes only its own history's entry.
  std::vector<CarriedVersion *> Carried;
  if (Carry)
    for (const std::vector<std::uint64_t> &Group : Groups) {
      const corpus::CodeChange &First = *Request.Changes[Group.front()];
      Carried.push_back(&(*Carry)[{First.ProjectName, First.FileName}]);
    }
  support::Interner &Table = *Labels;
  obs::Observer *Obs = Request.Metrics;
  obs::Registry *Reg = Obs ? &Obs->Metrics : nullptr;
  support::LoopStats Loop;
  support::parallelFor(
      Config.Threads, Groups.size(),
      [&](std::size_t G) {
        VersionStore Store(*this, Request);
        if (!Carried.empty())
          Store.seed(*Request.Changes[Groups[G].front()], *Carried[G]);
        for (std::uint64_t I : Groups[G]) {
          // Scope key = change index, so an armed fault plan hits the
          // same changes whether one thread or sixteen claim the work.
          support::FaultScope Scope(&Config.Faults, FirstIndex + I);
          obs::Span S(Obs ? &Obs->Trace : nullptr, "processChange");
          std::chrono::steady_clock::time_point T0;
          if (Obs)
            T0 = std::chrono::steady_clock::now();
          Records[I] = Store.process(*Request.Changes[I], Table, Reg);
          if (Obs)
            Records[I].WallNanos = std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count());
        }
        if (!Carried.empty())
          Store.carry(*Carried[G]);
        if (Reg)
          Store.recordCounts(*Reg);
      },
      Obs ? &Loop : nullptr);
  if (Reg)
    obs::recordLoopStats(*Reg, Loop);
  return Records;
}

ClassReport DiffCode::filterClass(const std::vector<ChangeRecord> &Records,
                                  const std::string &TargetClass) const {
  ClassReport ClassOut;
  ClassOut.TargetClass = TargetClass;
  for (const ChangeRecord &Record : Records) {
    auto It = Record.PerClass.find(TargetClass);
    if (It == Record.PerClass.end())
      continue;
    ClassOut.AllChanges.insert(ClassOut.AllChanges.end(), It->second.begin(),
                               It->second.end());
  }
  ClassOut.Filtered = applyFilters(ClassOut.AllChanges);
  return ClassOut;
}

void DiffCode::clusterClass(ClassReport &Class) const {
  Class.Tree = cluster::Dendrogram();
  Class.ClusteringError.clear();
  if (Class.Filtered.Kept.empty())
    return;
  // Scope key = class-name hash, distinct from any change index scope so
  // campaigns can target clustering alone.
  support::FaultScope Scope(&Config.Faults,
                            support::fnv1a64(Class.TargetClass));
  try {
    Class.Tree = cluster::clusterUsageChanges(Class.Filtered.Kept);
  } catch (const std::exception &E) {
    Class.Tree = cluster::Dendrogram();
    Class.ClusteringError = E.what();
  }
}

/// Folds one class's filter attrition and clustering shape into the
/// metrics registry. Counters accumulate across classes.
static void recordClassMetrics(obs::Registry &R, const ClassReport &Class) {
  const FilterResult &F = Class.Filtered;
  R.counter("filter.input").add(F.Total);
  R.counter("filter.after_fsame").add(F.AfterSame);
  R.counter("filter.after_fadd").add(F.AfterAdd);
  R.counter("filter.after_frem").add(F.AfterRem);
  R.counter("filter.after_fdup").add(F.AfterDup);
  R.counter("cluster.leaves").add(Class.Tree.leafCount());
  if (!Class.ClusteringError.empty())
    R.counter("cluster.failures").add(1);
}

CorpusReport DiffCode::run(const PipelineRequest &Request) const {
  CorpusReport Report;
  Report.Labels = Labels;
  obs::Observer *Obs = Request.Metrics;
  obs::Tracer *T = Obs ? &Obs->Trace : nullptr;
  {
    obs::Span Whole(T, "pipeline");
    {
      // Both engines yield one record per change in input order, so
      // everything below is the same code for either mode.
      obs::Span S(T, "analyzeChanges");
      Report.Changes = Request.Exec.Mode == ExecutionMode::Supervised
                           ? exec::superviseChanges(*this, Request)
                           : analyzeChanges(Request);
    }
    for (const std::string &TargetClass : Request.TargetClasses) {
      ClassReport ClassOut;
      {
        obs::Span S(T, "filterClass");
        ClassOut = filterClass(Report.Changes, TargetClass);
      }
      if (Request.BuildDendrograms) {
        obs::Span S(T, "clusterClass");
        clusterClass(ClassOut);
      }
      if (Obs)
        recordClassMetrics(Obs->Metrics, ClassOut);
      Report.PerClass.push_back(std::move(ClassOut));
    }
    {
      obs::Span S(T, "computeCorpusHealth");
      computeCorpusHealth(Report);
    }
  }
  if (Obs) {
    auto &R = Obs->Metrics;
    R.counter("pipeline.changes").add(Report.Changes.size());
    R.counter("pipeline.classes").add(Report.PerClass.size());
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      R.counter(std::string("pipeline.status.") +
                changeStatusName(static_cast<ChangeStatus>(I)))
          .add(Report.Health.StatusCounts[I]);
    R.counter("pipeline.clustering_failures")
        .add(Report.Health.ClusteringFailures);
    if (const support::FaultStats *FS = Config.Faults.Stats) {
      // A poisoned batch can abort mid-loop, so how many armed points
      // were even reached depends on scheduling: PerRun.
      for (unsigned I = 0; I < support::NumFaultSites; ++I) {
        auto Site = static_cast<support::FaultSite>(I);
        R.counter(std::string("faults.evaluated.") +
                      support::faultSiteName(Site),
                  obs::Unit::None, obs::Stability::PerRun)
            .add(FS->evaluated(Site));
        R.counter(std::string("faults.fired.") + support::faultSiteName(Site),
                  obs::Unit::None, obs::Stability::PerRun)
            .add(FS->fired(Site));
      }
    }
    Report.Metrics = Obs->summarize();
  }
  return Report;
}
