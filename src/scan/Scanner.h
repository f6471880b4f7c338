//===- scan/Scanner.h - Streaming corpus-scale rule scanner ----------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-driven scanner pipeline behind `diffcode_cli scan` and the
/// service's Scan request: CryptoChecker's evaluation (Section 6.4,
/// rules::evaluateProject) scaled to whole corpora. One Scanner instance
/// owns a rule set (rules::CompiledRuleSet), an analysis facade, and a
/// warm content-hash cache of analyzed units (core::AnalyzedVersion, the
/// pipeline's per-version product, holding facts but no DAGs); scan()
/// fans projects out over one support::parallelFor loop with per-project
/// fault containment (the core::ChangeStatus taxonomy: one poisoned
/// project degrades its own record, never the scan), and completed projects
/// stream to an optional ScanSink in deterministic project order through
/// a sequenced reorder buffer — the streamed bytes are byte-identical to
/// serializing the final ScanReport, at any thread count.
///
/// Determinism contract: the report (and the streamed record sequence)
/// is a pure function of (projects, rule set, Refine, Limits, fault
/// plan) — never of the config's Threads, the request's Metrics, the
/// unit cache, or scheduling. The unit cache is keyed purely by file
/// content (+ the refine bit), and it serves under a fault campaign too:
/// a unit's parse and interpretation faults depend on its text alone
/// (core::DiffCode::analyzeSourceChecked), and a digest that throws is
/// never cached.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SCAN_SCANNER_H
#define DIFFCODE_SCAN_SCANNER_H

#include "core/DiffCode.h"
#include "corpus/RepoModel.h"
#include "rules/CryptoChecker.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace diffcode {
namespace scan {

/// The scanner runs on the pipeline's engine config. This alias is the
/// benchmark's spelling of it (perfbench/src/Bench.h, Inputs.cpp) and
/// goes with ROADMAP item 5 leg 3.
using ScanConfig = core::PipelineConfig;

/// One scan invocation: which projects, which rules, whether to refine,
/// and who observes it.
struct ScanRequest {
  /// Projects to scan, in report order. Borrowed; must outlive scan().
  std::vector<const corpus::Project *> Projects;

  /// Rule ids to evaluate ("R8", "T3", ...); empty = the scanner's full
  /// rule set. Unknown ids select nothing (callers warn as they see
  /// fit). Verdict order follows the scanner's rule-set order, not the
  /// filter's.
  std::vector<std::string> RuleFilter;

  /// Run the demand-driven refinement pass (rules::evaluateProject) on
  /// matched rules. Off by default: refine-off output is byte-identical
  /// to the batch CryptoChecker path.
  bool Refine = false;

  /// Observability sink, as on core::PipelineRequest. Null keeps every
  /// instrumentation site at one pointer test and the report's Metrics
  /// summary empty. Must outlive scan().
  obs::Observer *Metrics = nullptr;
};

/// One scanned project: its report plus how the analysis went. Status
/// is the worst per-unit outcome (core::ChangeStatus severity order); a
/// throw escaping a unit is contained per project as AnalysisThrow with
/// an empty report.
struct ProjectScanRecord {
  std::string Project;
  core::ChangeStatus Status = core::ChangeStatus::Ok;
  std::string Detail; ///< First diagnostic at the worst severity.
  unsigned Units = 0;
  rules::ProjectReport Report;
  /// Wall time of the project's scan task; only populated on observed
  /// runs and never serialized (reports stay thread-count identical).
  std::uint64_t WallNanos = 0;
};

/// Corpus-wide totals for one rule, in rule-set order.
struct RuleTotal {
  support::LabelId Rule = rules::ScanSymbols::None;
  std::uint64_t Applicable = 0;
  std::uint64_t Matched = 0;
  std::uint64_t Violations = 0;
  std::uint64_t Suppressed = 0;
};

/// The whole-scan result.
struct ScanReport {
  std::vector<ProjectScanRecord> Projects;
  /// Projects per final status, indexed by core::ChangeStatus.
  std::array<unsigned, core::NumChangeStatuses> StatusCounts{};
  unsigned ProjectsWithViolation = 0;
  std::vector<RuleTotal> Rules;
  /// The table every symbol in this report resolves through.
  std::shared_ptr<const rules::ScanSymbols> Symbols;
  /// Frozen metrics of an observed run; empty otherwise.
  obs::RunSummary Metrics;

  const std::string &text(support::LabelId Id) const {
    return Symbols->text(Id);
  }
};

/// Streaming consumer of scan results. onProject is called exactly once
/// per project, in strict ascending index order (a sequenced reorder
/// buffer serializes out-of-order completions), never concurrently.
class ScanSink {
public:
  virtual ~ScanSink() = default;
  virtual void onProject(std::size_t Index, const ProjectScanRecord &Record) = 0;
};

/// The scanner. Construction interns the rule ids and hands the engine
/// config, unchanged, to the analysis facade: scan() reads its Threads
/// (per-project parallelism) and its Faults (each project runs under a
/// FaultScope keyed by its index, where the scan-project site draws),
/// and every unit is analyzed under its Limits. Instances are immutable
/// apart from the internal unit cache (thread-safe), so a warm scanner
/// can serve many scan() calls — the service holds one per session.
class Scanner {
public:
  /// Scans with the full elicited rule set R1-R13.
  explicit Scanner(const apimodel::CryptoApiModel &Api,
                   core::PipelineConfig Config = core::PipelineConfig());
  Scanner(const apimodel::CryptoApiModel &Api, core::PipelineConfig Config,
          std::vector<rules::Rule> Rules);

  const rules::CompiledRuleSet &rules() const { return Rules; }

  /// Runs one scan. With \p Sink, completed project records additionally
  /// stream out in deterministic order as the scan progresses.
  ScanReport scan(const ScanRequest &Request, ScanSink *Sink = nullptr) const;

  /// Digested units currently cached (tests / capacity planning).
  std::size_t cachedUnits() const;

private:
  /// Content key: dual 64-bit FNV-1a + length (+ the refine bit, since
  /// refined digests carry per-execution event lists).
  struct UnitKey {
    std::uint64_t H1 = 0, H2 = 0, Len = 0;
    bool Refine = false;
    bool operator<(const UnitKey &O) const;
  };

  /// The unit's facts (with per-execution lists when \p Refine) and
  /// status, from the cache or DiffCode::analyzeVersion.
  std::shared_ptr<const core::AnalyzedVersion>
  digest(std::string_view Code, bool Refine, java::AstContext &Ctx,
         std::uint64_t &Hits, std::uint64_t &Misses) const;

  rules::CompiledRuleSet Rules;
  core::DiffCode System;

  mutable std::mutex CacheMutex;
  mutable std::map<UnitKey, std::shared_ptr<const core::AnalyzedVersion>>
      Cache;
};

} // namespace scan
} // namespace diffcode

#endif // DIFFCODE_SCAN_SCANNER_H
