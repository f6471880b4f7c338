//===- perfbench/src/Traced.cpp - Per-layer breakdown from outside --------===//
//
// The traced run never instruments the program: it repeats what the
// program does by calling each layer's public functions from here, and
// records a span around every call in an obs::Tracer. The per-change
// composition must reproduce DiffCode::processChange's record byte for
// byte, so core.unattributed_ns (processChange time minus the layer times)
// is time the program spends outside those calls, not harness gaps.
//
// Every run reports every per-layer metric; a layer the workload does not
// exercise reads 0, which is the prediction for that workload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ReportWriter.h"
#include "exec/Supervisor.h"
#include "javaast/Lexer.h"
#include "rules/BuiltinRules.h"
#include "rules/ChangeClassifier.h"
#include "rules/RuleCompiler.h"
#include "scan/ScanReportWriter.h"
#include "service/AnalysisSession.h"

#include <fstream>
#include <map>
#include <set>
#include <unordered_map>

using namespace perfbench;

namespace {

/// Every per-layer metric, in output order, with its unit.
const std::vector<std::pair<const char *, const char *>> &layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> Metrics = {
      {"corpus.generate_ns", "ns"},
      {"corpus.mine_ns", "ns"},
      {"javaast.lex_ns", "ns"},
      {"javaast.parse_ns", "ns"},
      {"javaast.tokens", "count"},
      {"javaast.arena_bytes", "bytes"},
      {"analysis.interpret_ns", "ns"},
      {"analysis.steps", "count"},
      {"usage.dag_ns", "ns"},
      {"usage.dags", "count"},
      {"usage.derive_ns", "ns"},
      {"usage.changes", "count"},
      {"usage.empty_share", "share"},
      {"support.interner_paths", "count"},
      {"support.interner_bytes", "bytes"},
      {"rules.facts_ns", "ns"},
      {"rules.classify_ns", "ns"},
      {"rules.digest_ns", "ns"},
      {"rules.evaluate_ns", "ns"},
      {"core.process_change_ns", "ns"},
      {"core.unattributed_ns", "ns"},
      {"core.filter_ns", "ns"},
      {"core.kept_share", "share"},
      {"cluster.cluster_ns", "ns"},
      {"cluster.leaves", "count"},
      {"core.health_ns", "ns"},
      {"core.report_json_ns", "ns"},
      {"core.report_bytes", "bytes"},
      {"scan.scan_ns", "ns"},
      {"scan.unit_cache_hit_share", "share"},
      {"service.ingest_ns", "ns"},
      {"service.cache_hit_share", "share"},
      {"service.classes_repaired", "count"},
      {"service.pairs_computed", "count"},
      {"service.pairs_reused", "count"},
      {"exec.supervise_ns", "ns"},
      {"exec.overhead_ratio", "ratio"},
      {"exec.units_dispatched", "count"},
      {"exec.bytes_received", "bytes"},
      {"exec.worker_restarts", "count"},
      {"proc.minor_faults", "count"},
      {"proc.parallel_efficiency", "share"},
      {"proc.first_pass_wall_ns", "ns"},
      {"proc.first_pass_cpu_ns", "ns"},
      {"proc.first_pass_parallel_efficiency", "share"},
      {"proc.first_pass_minor_faults", "count"},
      {"trace.overhead_ns", "ns"},
      {"trace.overhead_share", "share"},
      {"trace.spans", "count"},
  };
  return Metrics;
}

/// Counts the composed layers produce alongside their spans.
struct Counts {
  std::uint64_t Tokens = 0, ArenaBytes = 0, Steps = 0, Dags = 0;
  std::uint64_t UsageChanges = 0, EmptyChanges = 0;
};

/// One traced run's spans, counts and metric values.
struct Layers {
  obs::Tracer Tr;
  Counts C;
  std::map<std::string, double> Value;
  std::map<std::string, std::size_t> Samples;

  void set(const std::string &Name, double V, std::size_t N = 1) {
    Value[Name] = V;
    Samples[Name] = N;
  }
  /// Summed duration of every span named \p Span.
  std::uint64_t spanNs(const std::string &Span) const {
    for (const obs::Tracer::StageTotal &S : Tr.aggregate())
      if (S.Name == Span)
        return S.TotalNs;
    return 0;
  }
};

//===----------------------------------------------------------------------===//
// The per-change composition
//===----------------------------------------------------------------------===//

/// DiffCode::analyzeSourceChecked, split into its layers. The lexer runs
/// once more on its own (parseJava lexes internally), so javaast.parse_ns
/// is the parse span minus the lex span.
core::DiffCode::SourceAnalysis composeSource(const core::DiffCode &System,
                                             std::string_view Source,
                                             java::AstContext &Ctx,
                                             obs::Tracer *T, Counts &C) {
  core::DiffCode::SourceAnalysis Out;
  if (Source.empty())
    return Out;
  {
    obs::Span S(T, "javaast.lex");
    java::DiagnosticsEngine LexDiags;
    C.Tokens += java::Lexer(Source, LexDiags).lexAll().size();
  }
  const core::PipelineConfig::LimitsGroup &Limits = System.config().Limits;
  Ctx.reset();
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit;
  {
    obs::Span S(T, "javaast.parse");
    Unit = java::parseJava(Source, Ctx, Diags, Limits.Parse);
  }
  C.ArenaBytes += Ctx.arenaBytes();
  auto FirstError = [&Diags]() -> std::string {
    for (const java::Diagnostic &D : Diags.all())
      if (D.Level == java::DiagLevel::Error)
        return D.str();
    return "unknown parse failure";
  };
  if (!Unit) {
    Out.Status = Diags.budgetExceeded() ? core::ChangeStatus::BudgetExceeded
                                        : core::ChangeStatus::ParseError;
    Out.Detail = FirstError();
    return Out;
  }
  {
    obs::Span S(T, "analysis.interpret");
    analysis::AbstractInterpreter Interp(api(), Limits.Analysis);
    Out.Result = Interp.analyze(Unit);
  }
  C.Steps += Out.Result.Stats.StepsUsed;
  if (Out.Result.Stats.anyBudgetHit()) {
    Out.Status = core::ChangeStatus::BudgetExceeded;
    Out.Detail = Out.Result.Stats.FuelExhausted ? "interpreter fuel exhausted"
                                                : "abstract-object cap hit";
  } else if (Diags.hasErrors()) {
    Out.Status = core::ChangeStatus::Degraded;
    Out.Detail = FirstError();
  }
  return Out;
}

/// DiffCode::processChange, one public call per layer.
core::ChangeRecord composeChange(const core::DiffCode &System,
                                 const corpus::CodeChange &Change,
                                 support::Interner &Table, obs::Tracer *T,
                                 Counts &C) {
  obs::Span Whole(T, "core.change");
  core::ChangeRecord Record;
  Record.Origin = Change.origin();
  Record.GroundTruthKind = Change.Kind;
  try {
    java::AstContext Ctx;
    core::DiffCode::SourceAnalysis Old =
        composeSource(System, Change.OldCode, Ctx, T, C);
    core::DiffCode::SourceAnalysis New =
        composeSource(System, Change.NewCode, Ctx, T, C);
    const core::DiffCode::SourceAnalysis &Worst =
        New.Status > Old.Status ? New : Old;
    Record.Status = Worst.Status;
    Record.StatusDetail = Worst.Detail;
    Record.StepsUsed = Old.Result.Stats.StepsUsed + New.Result.Stats.StepsUsed;

    for (const std::string &Class : api().targetClasses()) {
      std::vector<usage::UsageDag> OldDags, NewDags;
      {
        obs::Span S(T, "usage.dag");
        OldDags = System.dagsForClass(Old.Result, Class);
        NewDags = System.dagsForClass(New.Result, Class);
      }
      C.Dags += OldDags.size() + NewDags.size();
      std::vector<usage::UsageChange> Changes;
      {
        obs::Span S(T, "usage.derive");
        Changes = usage::deriveUsageChanges(OldDags, NewDags, Class, Table);
      }
      for (usage::UsageChange &U : Changes) {
        U.Origin = Record.Origin;
        C.EmptyChanges += U.Removed.empty() && U.Added.empty();
      }
      C.UsageChanges += Changes.size();
      if (!Changes.empty())
        Record.PerClass.emplace(Class, std::move(Changes));
    }

    rules::UnitFacts OldFacts, NewFacts;
    {
      obs::Span S(T, "rules.facts");
      OldFacts = rules::UnitFacts::from(Old.Result);
      NewFacts = rules::UnitFacts::from(New.Result);
    }
    obs::Span S(T, "rules.classify");
    for (const rules::Rule *R : classifyRules())
      Record.Classification.emplace(
          R->Id, rules::classifyChange(*R, OldFacts, NewFacts));
  } catch (const std::exception &E) {
    Record.PerClass.clear();
    Record.Classification.clear();
    Record.Status = core::ChangeStatus::AnalysisThrow;
    Record.StatusDetail = E.what();
    Record.StepsUsed = 0;
  }
  return Record;
}

/// Per-change timing of the untraced program against the composition.
struct ChangeTimer {
  const core::DiffCode &System;
  /// One interner per variant, so each pays for its own first interning.
  support::Interner ProgramTable, TracedTable, PlainTable;
  std::uint64_t ProgramNs = 0, PlainNs = 0, Changes = 0, Troubled = 0;
  Counts Scratch;

  explicit ChangeTimer(const core::DiffCode &System) : System(System) {}

  /// Untimed: interns \p Change's paths in all three tables and returns
  /// its record (resolved through TracedTable).
  core::ChangeRecord warm(const corpus::CodeChange &Change) {
    for (support::Interner *Table : {&ProgramTable, &PlainTable})
      System.processChange(Change, api().targetClasses(), classifyRules(),
                           *Table);
    return System.processChange(Change, api().targetClasses(),
                                classifyRules(), TracedTable);
  }

  /// Runs processChange, the traced composition and the untraced
  /// composition on \p Change, alternating which goes first so neither
  /// side always finds the caches warm. Returns the composed record.
  core::ChangeRecord run(const corpus::CodeChange &Change, Layers &L,
                         Results &R) {
    core::ChangeRecord Program, Composed;
    auto RunProgram = [&] {
      std::uint64_t T0 = nowNs();
      Program = System.processChange(Change, api().targetClasses(),
                                     classifyRules(), ProgramTable);
      ProgramNs += nowNs() - T0;
    };
    auto RunPlain = [&] {
      std::uint64_t T0 = nowNs();
      composeChange(System, Change, PlainTable, nullptr, Scratch);
      PlainNs += nowNs() - T0;
    };
    if (Changes++ % 2 == 0) {
      RunProgram();
      Composed = composeChange(System, Change, TracedTable, &L.Tr, L.C);
      RunPlain();
    } else {
      RunPlain();
      Composed = composeChange(System, Change, TracedTable, &L.Tr, L.C);
      RunProgram();
    }
    Troubled += Composed.Status != core::ChangeStatus::Ok;
    if (core::changeRecordToJson(Composed) != core::changeRecordToJson(Program))
      R.fail("composed record differs from processChange for " +
             Change.origin());
    return Composed;
  }

  /// Layer metrics of every change run so far.
  void finish(Layers &L) {
    std::uint64_t Lex = L.spanNs("javaast.lex"), Parse = L.spanNs("javaast.parse");
    std::uint64_t Attributed = Parse + L.spanNs("analysis.interpret") +
                               L.spanNs("usage.dag") + L.spanNs("usage.derive") +
                               L.spanNs("rules.facts") +
                               L.spanNs("rules.classify");
    L.set("javaast.lex_ns", double(Lex), Changes);
    L.set("javaast.parse_ns", double(Parse) - double(Lex), Changes);
    L.set("javaast.tokens", double(L.C.Tokens), Changes);
    L.set("javaast.arena_bytes", double(L.C.ArenaBytes), Changes);
    L.set("analysis.interpret_ns", double(L.spanNs("analysis.interpret")),
          Changes);
    L.set("analysis.steps", double(L.C.Steps), Changes);
    L.set("usage.dag_ns", double(L.spanNs("usage.dag")), Changes);
    L.set("usage.dags", double(L.C.Dags), Changes);
    L.set("usage.derive_ns", double(L.spanNs("usage.derive")), Changes);
    L.set("usage.changes", double(L.C.UsageChanges), Changes);
    L.set("usage.empty_share",
          L.C.UsageChanges ? double(L.C.EmptyChanges) / double(L.C.UsageChanges)
                           : 0.0,
          L.C.UsageChanges);
    L.set("support.interner_paths", double(TracedTable.pathCount()));
    L.set("support.interner_bytes", double(TracedTable.memoryBytes()));
    L.set("rules.facts_ns", double(L.spanNs("rules.facts")), Changes);
    L.set("rules.classify_ns", double(L.spanNs("rules.classify")), Changes);
    L.set("core.process_change_ns", double(ProgramNs), Changes);
    L.set("core.unattributed_ns", double(ProgramNs) - double(Attributed),
          Changes);
    std::uint64_t Traced = L.spanNs("core.change");
    L.set("trace.overhead_ns", double(Traced) - double(PlainNs), Changes);
    L.set("trace.overhead_share",
          PlainNs ? (double(Traced) - double(PlainNs)) / double(PlainNs) : 0.0,
          Changes);
  }
};

/// Filters and clusters every target class of \p Report's records, then
/// rolls up health and emits the report JSON, under spans.
std::string composeDownstream(const core::DiffCode &System,
                              core::CorpusReport &Report, Layers &L) {
  std::uint64_t Input = 0, Kept = 0, Leaves = 0;
  Report.PerClass.clear();
  for (const std::string &Class : api().targetClasses()) {
    core::ClassReport Out;
    {
      obs::Span S(&L.Tr, "core.filter");
      Out = System.filterClass(Report.Changes, Class);
    }
    {
      obs::Span S(&L.Tr, "cluster.cluster");
      System.clusterClass(Out);
    }
    Input += Out.Filtered.Total;
    Kept += Out.Filtered.Kept.size();
    Leaves += Out.Tree.leafCount();
    Report.PerClass.push_back(std::move(Out));
  }
  {
    obs::Span S(&L.Tr, "core.health");
    core::computeCorpusHealth(Report);
  }
  std::string Json;
  {
    obs::Span S(&L.Tr, "core.report_json");
    Json = core::corpusReportToJson(Report);
  }
  L.set("core.filter_ns", double(L.spanNs("core.filter")));
  L.set("core.kept_share", Input ? double(Kept) / double(Input) : 0.0, Input);
  L.set("cluster.cluster_ns", double(L.spanNs("cluster.cluster")));
  L.set("cluster.leaves", double(Leaves));
  L.set("core.health_ns", double(L.spanNs("core.health")));
  L.set("core.report_json_ns", double(L.spanNs("core.report_json")));
  L.set("core.report_bytes", double(Json.size()));
  return Json;
}

/// Runs \p Pass once as the process's first pass (recorded, never part
/// of an end-to-end number), then \p Warm more times for the per-pass
/// process metrics. Each pass is one span.
template <typename PassFn>
void passes(Layers &L, unsigned Threads, unsigned Warm, PassFn Pass) {
  ProcCounters First;
  {
    obs::Span S(&L.Tr, "first_pass");
    ProcCounters Start = ProcCounters::now();
    Pass();
    First = ProcCounters::now() - Start;
  }
  L.set("proc.first_pass_wall_ns", double(First.WallNs));
  L.set("proc.first_pass_cpu_ns", double(First.CpuNs));
  L.set("proc.first_pass_parallel_efficiency", First.efficiency(Threads));
  L.set("proc.first_pass_minor_faults", double(First.MinorFaults));
  std::vector<double> Faults, Efficiency;
  for (unsigned I = 0; I < Warm; ++I) {
    obs::Span S(&L.Tr, "pass");
    ProcCounters Start = ProcCounters::now();
    Pass();
    ProcCounters Used = ProcCounters::now() - Start;
    Faults.push_back(double(Used.MinorFaults));
    Efficiency.push_back(Used.efficiency(Threads));
  }
  L.set("proc.minor_faults", median(Faults), Warm);
  L.set("proc.parallel_efficiency", median(Efficiency), Warm);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void traceMine(const Options &O, const Scale &S, bool Supervised, Layers &L,
               Results &R) {
  MinedCorpus M = mineCorpus(S.MineProjects, O.Seed, &L.Tr);
  L.set("corpus.generate_ns", double(L.spanNs("corpus.generate")));
  L.set("corpus.mine_ns", double(L.spanNs("corpus.mine")));

  core::DiffCode System(api(), pipelineConfig(Width));
  core::PipelineRequest Request = mineRequest(M, Supervised);
  std::string Expected;
  passes(L, Width, S.MinPasses, [&] {
    Expected = core::corpusReportToJson(System.run(Request));
  });

  // The composition runs on one thread, as processChange does per change.
  core::DiffCode Serial(api(), pipelineConfig(1));
  ChangeTimer Timer(Serial);
  core::CorpusReport Composed;
  for (const corpus::CodeChange *Change : M.Changes)
    Composed.Changes.push_back(Timer.run(*Change, L, R));
  Timer.finish(L);
  R.Attempted += Timer.Changes;
  R.Failed += Timer.Troubled;
  if (composeDownstream(Serial, Composed, L) != Expected)
    R.fail("composed pipeline report differs from DiffCode::run");

  if (!Supervised)
    return;
  // Supervision against the in-process stage at the same width, CPU of
  // self plus workers, in back-to-back pairs.
  std::vector<double> Ratio, SuperviseNs;
  exec::SupervisionStats Stats;
  for (unsigned I = 0; I < S.MinPasses; ++I) {
    ProcCounters Start = ProcCounters::now();
    {
      obs::Span Sp(&L.Tr, "exec.supervise");
      Stats = exec::SupervisionStats();
      exec::superviseChanges(System, Request, &Stats);
    }
    ProcCounters Supervise = ProcCounters::now() - Start;
    Start = ProcCounters::now();
    {
      obs::Span Sp(&L.Tr, "exec.analyze");
      System.analyzeChanges(Request);
    }
    ProcCounters InProcess = ProcCounters::now() - Start;
    SuperviseNs.push_back(double(Supervise.WallNs));
    Ratio.push_back(double(Supervise.CpuNs) / double(InProcess.CpuNs));
  }
  L.set("exec.supervise_ns", median(SuperviseNs), S.MinPasses);
  L.set("exec.overhead_ratio", median(Ratio), S.MinPasses);
  L.set("exec.units_dispatched", double(Stats.UnitsDispatched));
  L.set("exec.bytes_received", double(Stats.BytesReceived));
  L.set("exec.worker_restarts", double(Stats.WorkerRestarts));
}

/// The scanner's per-project work, one public call per layer: digest
/// each distinct unit once (the scanner's content cache), evaluate each
/// project.
struct ScanComposer {
  const core::DiffCode &System;
  rules::CompiledRuleSet Rules;
  struct Entry {
    rules::UnitScanFacts Facts;
    core::ChangeStatus Status = core::ChangeStatus::Ok;
    std::string Detail;
  };

  explicit ScanComposer(const core::DiffCode &System)
      : System(System),
        Rules(rules::CompiledRuleSet::compile(
            rules::elicitedRules(), std::make_shared<rules::ScanSymbols>())) {}

  scan::ScanReport run(const std::vector<const corpus::Project *> &Projects,
                       obs::Tracer *T, Counts &C) {
    std::unordered_map<std::string_view, Entry> Cache;
    scan::ScanReport Report;
    Report.Symbols = Rules.symbols();
    for (const rules::CompiledRule &Rule : Rules.compiled())
      Report.Rules.push_back({Rule.Id, 0, 0, 0, 0});
    java::AstContext Ctx;
    for (const corpus::Project *P : Projects) {
      obs::Span Whole(T, "scan.project");
      scan::ProjectScanRecord Rec;
      Rec.Project = P->Name;
      Rec.Units = static_cast<unsigned>(P->Files.size());
      std::vector<const rules::UnitScanFacts *> Units;
      for (const corpus::ProjectFile &File : P->Files) {
        auto [It, Miss] = Cache.try_emplace(File.Code);
        Entry &E = It->second;
        if (Miss) {
          core::DiffCode::SourceAnalysis SA =
              composeSource(System, File.Code, Ctx, T, C);
          obs::Span S(T, "rules.digest");
          E.Facts = rules::digestUnit(SA.Result, *Rules.symbols(), false);
          E.Status = SA.Status;
          E.Detail = std::move(SA.Detail);
        }
        Units.push_back(&E.Facts);
        if (E.Status > Rec.Status) {
          Rec.Status = E.Status;
          Rec.Detail = E.Detail;
        }
      }
      {
        obs::Span S(T, "rules.evaluate");
        Rec.Report = rules::evaluateProject(Rules, Units, P->Meta, false);
      }
      foldProject(Report, std::move(Rec));
    }
    return Report;
  }
};

void traceScan(const Options &O, const Scale &S, Layers &L, Results &R) {
  ForkCorpus F = forkCorpus(S.ScanProjects, O.Seed, &L.Tr);
  L.set("corpus.generate_ns", double(L.spanNs("corpus.generate")));

  scan::ScanRequest Request;
  Request.Projects = F.Scan;
  std::string Expected;
  std::vector<double> ScanNs, HitShare;
  passes(L, Width, S.MinPasses, [&] {
    scan::Scanner Scanner(api(), scanConfig());
    std::uint64_t T0 = nowNs();
    scan::ScanReport Report = Scanner.scan(Request);
    ScanNs.push_back(double(nowNs() - T0));
    HitShare.push_back(double(F.Units - Scanner.cachedUnits()) /
                       double(F.Units));
    Expected = scan::scanReportToJson(Report);
  });
  ScanNs.erase(ScanNs.begin()); // the first pass is reported on its own
  HitShare.erase(HitShare.begin());
  L.set("scan.scan_ns", median(ScanNs), ScanNs.size());
  L.set("scan.unit_cache_hit_share", median(HitShare), HitShare.size());

  core::DiffCode Serial(api(), pipelineConfig(1));
  ScanComposer Composer(Serial);
  Counts Scratch;
  std::uint64_t T0 = nowNs();
  Composer.run(F.Scan, nullptr, Scratch);
  std::uint64_t PlainNs = nowNs() - T0;
  scan::ScanReport Report = Composer.run(F.Scan, &L.Tr, L.C);
  if (scan::scanReportToJson(Report) != Expected)
    R.fail("composed scan report differs from scan::Scanner");
  R.Attempted += Report.Projects.size();
  R.Failed += Report.Projects.size() -
              Report.StatusCounts[unsigned(core::ChangeStatus::Ok)];

  std::uint64_t Lex = L.spanNs("javaast.lex"), Parse = L.spanNs("javaast.parse");
  L.set("javaast.lex_ns", double(Lex));
  L.set("javaast.parse_ns", double(Parse) - double(Lex));
  L.set("javaast.tokens", double(L.C.Tokens));
  L.set("javaast.arena_bytes", double(L.C.ArenaBytes));
  L.set("analysis.interpret_ns", double(L.spanNs("analysis.interpret")));
  L.set("analysis.steps", double(L.C.Steps));
  L.set("rules.digest_ns", double(L.spanNs("rules.digest")));
  L.set("rules.evaluate_ns", double(L.spanNs("rules.evaluate")));
  std::uint64_t Traced = L.spanNs("scan.project");
  L.set("trace.overhead_ns", double(Traced) - double(PlainNs));
  L.set("trace.overhead_share",
        PlainNs ? (double(Traced) - double(PlainNs)) / double(PlainNs) : 0.0);
}

void traceAppend(const Options &O, const Scale &S, Layers &L, Results &R) {
  MinedCorpus M = mineCorpus(S.MineProjects, O.Seed, &L.Tr);
  L.set("corpus.generate_ns", double(L.spanNs("corpus.generate")));
  L.set("corpus.mine_ns", double(L.spanNs("corpus.mine")));
  AppendSplit Split = splitForAppend(M, S.AppendCommits);

  service::AnalysisSession Session(api(), sessionOptions());
  // The cold ingest is this workload's first pass.
  ProcCounters Start = ProcCounters::now();
  {
    obs::Span Sp(&L.Tr, "first_pass");
    Session.ingest(Split.Head);
  }
  ProcCounters First = ProcCounters::now() - Start;
  L.set("proc.first_pass_wall_ns", double(First.WallNs));
  L.set("proc.first_pass_cpu_ns", double(First.CpuNs));
  L.set("proc.first_pass_parallel_efficiency", First.efficiency(1));
  L.set("proc.first_pass_minor_faults", double(First.MinorFaults));

  // A shadow of the session built the cold way: its records come from
  // processChange, and each append re-filters and re-clusters the
  // touched classes from scratch, so every ingest is attributed to the
  // layers a cold run would spend it in. Building it is set-up: untraced,
  // and it warms all three of the timer's interners alike.
  core::DiffCode Serial(api(), pipelineConfig(1));
  ChangeTimer Timer(Serial);
  core::CorpusReport Shadow;
  for (const corpus::CodeChange &Change : Split.Head)
    Shadow.Changes.push_back(Timer.warm(Change));
  for (const std::string &Class : api().targetClasses()) {
    Shadow.PerClass.push_back(Serial.filterClass(Shadow.Changes, Class));
    Serial.clusterClass(Shadow.PerClass.back());
  }

  std::uint64_t Hits = 0, Ingested = 0, Repaired = 0;
  std::uint64_t Computed = 0, Reused = 0, Kept = 0, Input = 0, Leaves = 0;
  ProcCounters Appends;
  for (const std::vector<corpus::CodeChange> &Commit : Split.Commits) {
    ProcCounters T0 = ProcCounters::now();
    service::IngestStats Stats;
    {
      obs::Span Sp(&L.Tr, "service.ingest");
      Stats = Session.ingest(Commit);
    }
    ProcCounters Used = ProcCounters::now() - T0;
    Appends.WallNs += Used.WallNs;
    Appends.CpuNs += Used.CpuNs;
    Appends.MinorFaults += Used.MinorFaults;
    Hits += Stats.CacheHits;
    Ingested += Stats.Ingested;
    Repaired += Stats.ClassesRepaired;
    Computed += Stats.PairsComputed;
    Reused += Stats.PairsReused;

    std::set<std::string> Touched;
    for (const corpus::CodeChange &Change : Commit) {
      Shadow.Changes.push_back(Timer.run(Change, L, R));
      for (const auto &[Class, Changes] : Shadow.Changes.back().PerClass)
        Touched.insert(Class);
    }
    const std::vector<std::string> &Classes = api().targetClasses();
    for (std::size_t I = 0; I < Classes.size(); ++I) {
      if (!Touched.count(Classes[I]))
        continue;
      core::ClassReport &Out = Shadow.PerClass[I];
      {
        obs::Span Sp(&L.Tr, "core.filter");
        Out = Serial.filterClass(Shadow.Changes, Classes[I]);
      }
      obs::Span Sp(&L.Tr, "cluster.cluster");
      Serial.clusterClass(Out);
      Input += Out.Filtered.Total;
      Kept += Out.Filtered.Kept.size();
      Leaves += Out.Tree.leafCount();
    }
    obs::Span Sp(&L.Tr, "core.health");
    core::computeCorpusHealth(Shadow);
  }
  std::string Json;
  {
    obs::Span Sp(&L.Tr, "core.report_json");
    Json = core::corpusReportToJson(Shadow);
  }
  if (Json != Session.reportJson())
    R.fail("shadow report differs from the appended session's report");

  const std::size_t N = Split.Commits.size();
  Timer.finish(L);
  R.Attempted += Timer.Changes;
  R.Failed += Timer.Troubled;
  L.set("core.filter_ns", double(L.spanNs("core.filter")), N);
  L.set("core.kept_share", Input ? double(Kept) / double(Input) : 0.0, Input);
  L.set("cluster.cluster_ns", double(L.spanNs("cluster.cluster")), N);
  L.set("cluster.leaves", double(Leaves), N);
  L.set("core.health_ns", double(L.spanNs("core.health")), N);
  L.set("core.report_json_ns", double(L.spanNs("core.report_json")));
  L.set("core.report_bytes", double(Json.size()));
  L.set("service.ingest_ns", double(Appends.WallNs), N);
  L.set("service.cache_hit_share",
        Ingested ? double(Hits) / double(Ingested) : 0.0, Ingested);
  L.set("service.classes_repaired", double(Repaired), N);
  L.set("service.pairs_computed", double(Computed), N);
  L.set("service.pairs_reused", double(Reused), N);
  L.set("proc.minor_faults", double(Appends.MinorFaults), N);
  L.set("proc.parallel_efficiency", Appends.efficiency(1), N);
}

} // namespace

void perfbench::runTraced(const Options &O, Results &R) {
  Scale S = Scale::forOptions(O);
  Layers L;
  if (O.Workload == "mine")
    traceMine(O, S, /*Supervised=*/false, L, R);
  else if (O.Workload == "mine-supervised")
    traceMine(O, S, /*Supervised=*/true, L, R);
  else if (O.Workload == "scan-forks")
    traceScan(O, S, L, R);
  else
    traceAppend(O, S, L, R);

  L.set("trace.spans", double(L.Tr.eventCount()));
  for (const auto &[Name, Unit] : layerMetrics()) {
    auto It = L.Value.find(Name);
    if (It == L.Value.end())
      R.add(Name, 0.0, Unit, 0, "not exercised by this workload");
    else
      R.add(Name, It->second, Unit, L.Samples[Name]);
  }
  if (!O.TraceOut.empty()) {
    std::ofstream Out(O.TraceOut);
    Out << L.Tr.traceJson();
    if (!Out)
      R.fail("cannot write the Chrome trace to " + O.TraceOut);
    else
      std::fprintf(stderr, "perfbench: Chrome trace written to %s\n",
                   O.TraceOut.c_str());
  }
}
