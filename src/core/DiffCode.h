//===- core/DiffCode.h - The end-to-end DiffCode pipeline ------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DiffCode system (Section 5): parse both versions of each code
/// change, analyze them with the abstract interpreter, derive usage DAGs
/// per target class, pair and diff them into usage changes, filter, and
/// cluster — producing everything the paper's evaluation reports.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CORE_DIFFCODE_H
#define DIFFCODE_CORE_DIFFCODE_H

#include "analysis/AbstractInterpreter.h"
#include "cluster/HierarchicalClustering.h"
#include "core/Filters.h"
#include "corpus/RepoModel.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "rules/ChangeClassifier.h"
#include "support/FaultInjection.h"
#include "support/Interner.h"
#include "usage/UsageChange.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace core {

/// How the per-change analysis stage executes.
enum class ExecutionMode {
  InProcess,  ///< analyzeChanges on a parallelFor loop in this process.
  Supervised, ///< exec/Supervisor worker subprocesses with containment.
};

/// Supervised-execution policy (exec/Supervisor.h consumes it). Lives in
/// core so a PipelineRequest fully describes a run without the caller
/// naming anything in the exec layer.
struct ExecutionPolicy {
  ExecutionMode Mode = ExecutionMode::InProcess;
  /// Worker subprocesses; support::resolveThreads semantics (0 = one per
  /// hardware thread), additionally clamped to the number of work units.
  unsigned Workers = 0;
  /// Most changes per work unit (serialized batch); 0 packs one change
  /// per unit. Units pack whole file histories (fileHistories), so a unit
  /// holds fewer when the next history does not fit, and only a history
  /// longer than this is split. Larger units amortize the per-unit
  /// dispatch round-trip (a unit completion context-switches worker ->
  /// coordinator -> worker); on failure, half-batch bisection recovers
  /// single-change granularity, so the batch size only prices the clean
  /// path.
  std::size_t BatchSize = 32;
  /// Wall-clock watchdog per dispatched unit; a worker that exceeds it is
  /// SIGKILLed and the unit enters retry/bisection. 0 disables the
  /// watchdog.
  std::uint64_t UnitDeadlineMs = 10000;
  /// Terminal-failure bar: a single poisoned change is retried this many
  /// times (with exponential backoff) before its record is stamped
  /// WorkerCrash/WorkerTimeout/WorkerOom.
  unsigned MaxRetries = 2;
  /// Backoff before the Nth retry of a singleton unit:
  /// min(BackoffBaseMs << (N-1), 1000 ms).
  std::uint64_t BackoffBaseMs = 10;
};

/// The engine's settings, shared by every run of one DiffCode: only what
/// the engine itself reads — threads, limits and the fault-injection
/// campaign. Per-run settings (observer, execution policy) live on
/// PipelineRequest, so each setting has exactly one home:
///
///   core::DiffCode System(Api, {.Threads = 8});
///
/// Threads follows support::resolveThreads semantics (0 = one per
/// hardware thread) and never changes report bytes; the limits and an
/// armed campaign change them only through their documented effects.
struct PipelineConfig {
  /// -- threads: worker threads for the per-change analysis stage (each
  /// change is independent: parse + analyze + diff). Results are
  /// deterministic regardless.
  unsigned Threads = 1;

  /// -- limits: deterministic frontend/interpreter budgets applied to
  /// every parsed version (0 = unlimited), and the usage-DAG depth.
  struct LimitsGroup {
    /// Frontend budgets applied to every parsed version.
    java::ParseLimits Parse;
    /// Abstract-interpreter fuel and object caps.
    analysis::AnalysisOptions Analysis;
    unsigned DagDepth = 5; ///< Section 3.4's n.
  };
  LimitsGroup Limits;

  /// Fault-injection campaign (testing only; disabled by default). When
  /// armed, each change, each per-class clustering step and each analyzed
  /// text runs under a deterministic FaultScope keyed by that input, so
  /// injected failures land on the same changes at any thread count.
  support::FaultPlan Faults;
};

/// Outcome taxonomy for one processed code change. Ordered by severity:
/// combining the old/new version outcomes takes the maximum. The first
/// five are in-process containment outcomes (PR 2); the Worker* statuses
/// are terminal verdicts of the supervised multi-process engine
/// (exec/Supervisor): the subprocess holding this change died, overran
/// its deadline, or took the out-of-memory exit even after bounded retry
/// and half-batch bisection.
enum class ChangeStatus {
  Ok = 0,         ///< Both versions parsed and analyzed cleanly.
  Degraded,       ///< Parse diagnostics; analysis ran on a partial tree.
  ParseError,     ///< A version produced no usable compilation unit.
  BudgetExceeded, ///< A ParseLimits or AnalysisOptions budget truncated it.
  AnalysisThrow,  ///< The worker threw; the record is empty but present.
  WorkerCrash,    ///< Worker subprocess died (signal/exit/protocol error).
  WorkerTimeout,  ///< Worker overran the per-unit wall-clock deadline.
  WorkerOom,      ///< Worker took the out-of-memory exit (exec::OomExitCode).
};

/// Number of ChangeStatus values (for count arrays).
inline constexpr std::size_t NumChangeStatuses = 8;

/// Stable lowercase name ("ok", "parse-error", ...) for reports.
const char *changeStatusName(ChangeStatus Status);

/// The per-code-change output: usage changes per target class, the
/// rule-based classification, and provenance.
struct ChangeRecord {
  std::string Origin;
  std::string GroundTruthKind; ///< Generator kind; empty for mined code.
  /// Target class -> usage changes this code change produced.
  std::map<std::string, std::vector<usage::UsageChange>> PerClass;
  /// Rule id -> fix/bug/none classification (Section 6.2).
  std::map<std::string, rules::ChangeClass> Classification;
  /// How processing this change went (worst of the two versions).
  ChangeStatus Status = ChangeStatus::Ok;
  /// Human-readable cause for non-Ok statuses (first diagnostic, the
  /// budget that tripped, or the exception message).
  std::string StatusDetail;
  /// Interpreter steps consumed across both versions (worst-offender
  /// ranking in the corpus-health summary).
  std::uint64_t StepsUsed = 0;
  /// Wall nanoseconds the analysis stage spent on this change, including
  /// analyzing any version it needed first (a version an earlier change
  /// left in the store costs it nothing). Only measured when the run is
  /// observed (PipelineRequest::Metrics); run-dependent, so it feeds the
  /// CLI table and the "metrics" JSON block — never the deterministic
  /// "health" block.
  std::uint64_t WallNanos = 0;
};

/// Aggregated per-target-class results (Figure 6 row + Figure 8 input).
struct ClassReport {
  std::string TargetClass;
  std::vector<usage::UsageChange> AllChanges;
  FilterResult Filtered;
  cluster::Dendrogram Tree; ///< Over Filtered.Kept (empty if not built).
  /// Non-empty when dendrogram construction failed; Tree is then empty
  /// but AllChanges/Filtered are still valid.
  std::string ClusteringError;
};

/// One row of the corpus-health worst-offender table.
struct WorstOffender {
  std::string Origin;
  std::uint64_t Steps = 0;
  ChangeStatus Status = ChangeStatus::Ok;
  /// Wall nanoseconds from the record (0 unless the run was observed;
  /// PerRun — reported in the CLI table and the "metrics" JSON block,
  /// deliberately absent from the deterministic "health" block).
  std::uint64_t WallNanos = 0;
};

/// Corpus-health summary: how many changes landed in each status bucket,
/// which classes failed to cluster, and where the analysis budgets went.
struct CorpusHealth {
  /// Indexed by static_cast<size_t>(ChangeStatus).
  std::array<std::size_t, NumChangeStatuses> StatusCounts{};
  /// Classes whose clustering step failed (ClusteringError non-empty).
  std::size_t ClusteringFailures = 0;
  /// Top changes by interpreter steps consumed, descending; ties broken
  /// by origin, then by record order, so the order is total.
  std::vector<WorstOffender> WorstOffenders;

  std::size_t count(ChangeStatus Status) const {
    return StatusCounts[static_cast<std::size_t>(Status)];
  }
  /// Changes that did not complete cleanly (everything but Ok).
  std::size_t troubled() const;
};

/// Whole-corpus pipeline output.
struct CorpusReport {
  std::vector<ChangeRecord> Changes;
  std::vector<ClassReport> PerClass;
  CorpusHealth Health;
  /// The interner every usage change in this report resolves through,
  /// pinned here so the report stays self-contained even if the DiffCode
  /// instance goes away first.
  std::shared_ptr<const support::Interner> Labels;
  /// Observability summary of the run: metrics snapshot + per-stage
  /// timing table. Empty unless the request carried an Observer; rendered
  /// as the report's "metrics" JSON block.
  obs::RunSummary Metrics;
};

/// Everything one pipeline run needs, replacing run's former positional
/// parameter list. Aggregate-initializable:
///
///   System.run({.Changes = Mined,
///               .TargetClasses = Api.targetClasses()});
///
/// Pointed-to changes and rules must outlive the call. A request
/// describes exactly one run; service::AnalysisSession is the stateful
/// extension of this model — a session is a request whose Changes
/// accumulate across ingests and whose intermediate products persist.
struct PipelineRequest {
  std::vector<const corpus::CodeChange *> Changes;
  std::vector<std::string> TargetClasses;
  /// Rules to classify each change under (may be empty).
  std::vector<const rules::Rule *> ClassifyWith;
  /// Whether the (quadratic-distance) clustering stage runs.
  bool BuildDendrograms = true;
  /// Observability sink. Null (the default) turns instrumentation off —
  /// every site reduces to one pointer test and the report's Metrics
  /// summary stays empty. When set, stages open spans in Metrics->Trace,
  /// counters/histograms land in Metrics->Metrics, and run()
  /// freezes the result into CorpusReport::Metrics. Must outlive the
  /// call.
  obs::Observer *Metrics = nullptr;
  /// Execution mode + supervision knobs. DiffCode::run dispatches on
  /// Exec.Mode; the stage entry points ignore it.
  ExecutionPolicy Exec;
};

/// Which fact digest DiffCode::analyzeVersion builds.
enum class VersionFacts {
  None,       ///< No facts: the product's Facts stays empty.
  Merged,     ///< rules::UnitFacts::from(Result): what classification reads.
  Executions, ///< Also the per-execution event lists refinement reads.
};

/// The per-version stage's product: one analyzed program version, owning
/// everything the per-change stage and the scanner read of it. It holds
/// no AST and no AnalysisResult, so it outlives the parse that made it
/// and one product serves every change that shares its text.
struct AnalyzedVersion {
  ChangeStatus Status = ChangeStatus::Ok;
  std::string Detail; ///< First diagnostic / budget cause when non-Ok.
  analysis::AnalysisStats Stats;
  /// Usage DAGs per requested class, parallel to the classes
  /// analyzeVersion was asked for, each as dagsForClass returns them.
  std::vector<std::vector<usage::UsageDag>> Dags;
  rules::UnitFacts Facts; ///< Empty under VersionFacts::None.
};

/// One file history's last analyzed version, kept from one analyzeChanges
/// call to the next. It owns its text, because the changes a call views
/// may be gone before the next call. Empty (no Version) when the history
/// has none to offer.
struct CarriedVersion {
  std::string Text;
  std::shared_ptr<const AnalyzedVersion> Version;
};

/// Each file history's CarriedVersion, keyed by (ProjectName, FileName).
using VersionCarry =
    std::map<std::pair<std::string, std::string>, CarriedVersion>;

/// The corpus-health rollup as a running tally over an append-only record
/// list: the status counts plus the record indices of the current worst
/// offenders. The offender order is total, so the top entries of a longer
/// list come from the previous top entries plus the new records, and
/// extending a tally gives exactly what a recount over every record gives.
class HealthTally {
public:
  /// A tally of no records keeping at most \p MaxOffenders offenders.
  explicit HealthTally(std::size_t MaxOffenders = 5)
      : MaxOffenders(MaxOffenders) {}

  /// Folds in the records of \p Records past the ones already folded,
  /// which must be its prefix.
  void extend(const std::vector<ChangeRecord> &Records);

  /// The health block of \p Report, whose Changes are the records folded
  /// in. Clustering failures are recounted over Report.PerClass, because a
  /// re-clustered class can fail or recover.
  CorpusHealth health(const CorpusReport &Report) const;

private:
  std::size_t MaxOffenders;
  std::size_t Tallied = 0;
  std::array<std::size_t, NumChangeStatuses> StatusCounts{};
  /// Record indices of the worst offenders, in offender order.
  std::vector<std::size_t> Worst;
};

/// Recomputes \p Report's health summary from its records (at most
/// \p MaxOffenders worst-offender entries): a HealthTally extended over
/// every record. run() calls this; exposed for tests and for callers that
/// post-edit reports.
void computeCorpusHealth(CorpusReport &Report, std::size_t MaxOffenders = 5);

/// The system facade.
class DiffCode {
public:
  explicit DiffCode(const apimodel::CryptoApiModel &Api);
  DiffCode(const apimodel::CryptoApiModel &Api, PipelineConfig Config);

  const PipelineConfig &config() const { return Config; }

  /// One parsed-and-analyzed program version plus how it went. Frontend
  /// problems are recorded, never silently swallowed.
  struct SourceAnalysis {
    analysis::AnalysisResult Result;
    ChangeStatus Status = ChangeStatus::Ok;
    std::string Detail; ///< First diagnostic / budget cause when non-Ok.
  };

  /// The one checked analysis entry point: parses and abstractly
  /// interprets one Java source (empty source yields an empty Ok result —
  /// new/deleted files diff against nothing), recording parser
  /// diagnostics and budget hits in the status. Its injected faults draw
  /// under a FaultScope keyed by the source's content hash, on the plan
  /// the calling thread carries. Callers that only need the result use
  /// analyzeSourceChecked(Source).Result.
  SourceAnalysis analyzeSourceChecked(std::string_view Source) const;

  /// Arena-reuse variant: parses into \p Ctx after resetting it, so a
  /// caller analyzing several versions (processChange does old + new)
  /// recycles the same slab memory instead of re-allocating per parse.
  /// The AnalysisResult holds no AST pointers, so the returned value
  /// remains valid after the next reset.
  SourceAnalysis analyzeSourceChecked(std::string_view Source,
                                      java::AstContext &Ctx) const;

  /// Usage DAGs of \p TargetClass across all executions, deduplicated by
  /// canonical identity (UsageDag::sameIdentity), in first-occurrence
  /// order.
  std::vector<usage::UsageDag>
  dagsForClass(const analysis::AnalysisResult &Result,
               const std::string &TargetClass) const;

  /// The instance's corpus interner: every usage change the pipeline
  /// stages produce resolves through it.
  const std::shared_ptr<support::Interner> &labels() const { return Labels; }

  /// Usage changes of one code change for one target class, interned in
  /// labels().
  std::vector<usage::UsageChange>
  usageChangesFor(const corpus::CodeChange &Change,
                  const std::string &TargetClass) const;

  /// The per-version stage: analyzeSourceChecked(Source, Ctx), then the
  /// usage DAGs of each of \p DagClasses and the facts \p Facts asks for,
  /// keeping none of the AST or AnalysisResult. Records no metrics and
  /// throws what the analysis throws.
  AnalyzedVersion analyzeVersion(std::string_view Source,
                                 java::AstContext &Ctx,
                                 const std::vector<std::string> &DagClasses,
                                 VersionFacts Facts) const;

  /// The per-change stage: the record of \p Change from its two analyzed
  /// versions, whose Dags are parallel to \p TargetClasses (and whose
  /// Facts are Merged when \p ClassifyWith is non-empty). Status is the
  /// worse version's; each class's usage changes are derived and interned
  /// into \p Table; the change is classified under each rule. With \p Reg,
  /// records both versions' interpreter metrics (steps/entries/objects
  /// histograms, budget-hit counters) and usage-change counts. Throws
  /// what deriving or classifying throws.
  ChangeRecord
  assembleChange(const corpus::CodeChange &Change, const AnalyzedVersion &Old,
                 const AnalyzedVersion &New,
                 const std::vector<std::string> &TargetClasses,
                 const std::vector<const rules::Rule *> &ClassifyWith,
                 support::Interner &Table, obs::Registry *Reg = nullptr) const;

  /// Processes one code change end to end for all \p TargetClasses,
  /// classifying it under \p ClassifyWith (may be empty): assembleChange
  /// over two fresh analyzeVersion products, so it shares no work with
  /// any other change. No pipeline stage calls it: it is the oracle that
  /// tests and the benchmark check analyzeChanges' version reuse against.
  /// Feature paths intern into \p Table (the stages pass *labels());
  /// \p Reg is assembleChange's. Never throws: any escaping exception is
  /// contained into an empty record with Status == AnalysisThrow, so one
  /// poisoned change cannot take down a corpus run.
  ChangeRecord
  processChange(const corpus::CodeChange &Change,
                const std::vector<std::string> &TargetClasses,
                const std::vector<const rules::Rule *> &ClassifyWith,
                support::Interner &Table, obs::Registry *Reg = nullptr) const;

  //===--------------------------------------------------------------------===//
  // Stage entry points. run() composes exactly these three, so
  // callers can run any prefix (analysis only, analysis + filters) or
  // re-cluster a filtered class without re-analyzing the corpus.
  //===--------------------------------------------------------------------===//

  /// Stage 1 — per-change analysis: one record per Request.Changes entry,
  /// in input order, each equal to processChange's. Changes are grouped
  /// by file history (fileHistories); config().Threads threads claim
  /// whole groups, and each group runs in change order through its own
  /// VersionStore, so a version a commit shares with the commit before it
  /// is analyzed once. Change I runs under the fault scope keyed
  /// \p FirstIndex + I
  /// (its index in the whole corpus when the batch extends an earlier
  /// one, as a session ingest does). Observed runs add the
  /// pipeline.versions_analyzed / pipeline.versions_reused counters.
  /// Request.BuildDendrograms is ignored here.
  ///
  /// With \p Carry, a batch continues earlier ones: each group's store is
  /// seeded with its history's carried version, so the commit before the
  /// batch counts as the previous change, and afterwards the history's
  /// entry holds the new side of the group's last change (cleared when
  /// that side threw). Every call passing one carry must use this
  /// DiffCode and the same TargetClasses and ClassifyWith.
  std::vector<ChangeRecord> analyzeChanges(const PipelineRequest &Request,
                                           std::size_t FirstIndex = 0,
                                           VersionCarry *Carry = nullptr) const;

  /// Stage 2 — per-class gather + filter: concatenates \p TargetClass's
  /// usage changes from \p Records (record order) and runs the
  /// fsame/fadd/frem/fdup pipeline. Tree is left empty.
  ClassReport filterClass(const std::vector<ChangeRecord> &Records,
                          const std::string &TargetClass) const;

  /// Stage 3 — clustering: builds \p Class.Tree over Class.Filtered.Kept
  /// by complete linkage under usageDist. A failure empties the Tree and
  /// sets Class.ClusteringError instead of throwing.
  void clusterClass(ClassReport &Class) const;

  /// The one pipeline entry point: dispatches on Request.Exec.Mode, runs
  /// the per-change analysis stage — analyzeChanges in this process or
  /// exec::superviseChanges under the worker pool — followed per target
  /// class by filterClass and (when Request.BuildDendrograms)
  /// clusterClass, then the corpus-health rollup. Per-change failures are
  /// contained in the corresponding ChangeRecord and tallied in the
  /// report's Health summary; a clustering failure empties that class's
  /// Tree and sets ClusteringError. Both execution modes produce
  /// byte-identical reports.
  CorpusReport run(const PipelineRequest &Request) const;

private:
  const apimodel::CryptoApiModel &Api;
  PipelineConfig Config;
  /// Corpus interner backing every change this instance derives.
  /// shared_ptr so reports can outlive the facade.
  std::shared_ptr<support::Interner> Labels;
};

/// Change indices grouped by file history (ProjectName, FileName), each
/// group in change order, groups in order of their first change. The file
/// after one commit is the file before the next, so a history is where
/// versions repeat: analyzeChanges runs each group on one thread, and the
/// supervisor packs whole groups into its work units.
std::vector<std::vector<std::uint64_t>>
fileHistories(const std::vector<const corpus::CodeChange *> &Changes);

/// Runs changes through processChange's two stages, serving a version
/// from the previous change when that change is of the same file history
/// and holds the same text: the new file of one commit is the old file of
/// the next. It keeps just the previous change's two versions (four live
/// with the change in hand) and drops them when a change of another
/// history arrives, so reuse never crosses histories. Texts are compared
/// exactly, so each record equals processChange's whatever changes the
/// store has seen. A version whose analysis throws is not kept, and the
/// change is contained as processChange contains it. Parse and
/// interpretation faults follow the text (analyzeSourceChecked), so this
/// holds under an armed fault plan too. One store serves one thread;
/// Request and its changes must outlive it.
///
/// seed() and carry() continue a history across stores: only the new
/// side travels, since the next commit's old file is the previous
/// commit's new file.
class VersionStore {
public:
  VersionStore(const DiffCode &System, const PipelineRequest &Request);

  /// Makes \p Carried the new side of the change before \p First, so
  /// \p First's old side can reuse it. Does nothing when \p Carried is
  /// empty. \p Carried must stay unchanged until carry().
  void seed(const corpus::CodeChange &First, const CarriedVersion &Carried);

  /// Writes the new side of the last change processed into \p Carried,
  /// or empties it when that side threw.
  void carry(CarriedVersion &Carried) const;

  /// The record of \p Change, one of Request.Changes (the caller installs
  /// its fault scope). Never throws.
  ChangeRecord process(const corpus::CodeChange &Change,
                       support::Interner &Table, obs::Registry *Reg = nullptr);

  /// Adds the versions analyzed and the versions served again so far to
  /// the Deterministic pipeline.versions_analyzed and
  /// pipeline.versions_reused counters.
  void recordCounts(obs::Registry &Reg) const;

private:
  struct Kept {
    std::string_view Text;
    std::shared_ptr<const AnalyzedVersion> Version;
  };
  Kept version(std::string_view Text, const Kept &Sibling);

  const DiffCode &System;
  const PipelineRequest &Request;
  const VersionFacts Facts;
  java::AstContext Ctx;
  /// The previous change's file history and its old and new versions (a
  /// seeded store starts with only the new one).
  std::string_view Project, File;
  std::array<Kept, 2> Prev;
  std::uint64_t Analyzed = 0, Reused = 0;
};

} // namespace core
} // namespace diffcode

#endif // DIFFCODE_CORE_DIFFCODE_H
