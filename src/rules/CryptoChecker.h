//===- rules/CryptoChecker.h - The CryptoChecker tool (Section 6.4) --------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CryptoChecker evaluates a rule set against whole projects (sets of
/// analyzed compilation units) and reports, per rule, applicability and
/// matches plus the concrete violating allocation sites — the data behind
/// Figure 10. It is a CompiledRuleSet plus evaluateProject, the same
/// evaluation scan/Scanner runs per project.
///
/// The report model is interned: Violation and RuleVerdict carry 32-bit
/// support::LabelId handles into a ScanSymbols table instead of owning
/// strings, so a corpus-scale scan (scan/Scanner fans the checker's
/// semantics out over thousands of projects) shares one copy of every
/// rule id, type name, and site label. Rule ids are interned once per
/// rule set, and a violation's type and site when it is emitted. The
/// determinism contract mirrors support::Interner's: no output may depend
/// on id *values* (they are interleaving-dependent under concurrent
/// interning), only on id equality and the resolved text.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_RULES_CRYPTOCHECKER_H
#define DIFFCODE_RULES_CRYPTOCHECKER_H

#include "rules/Rule.h"
#include "support/Interner.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace rules {

/// Append-only table of the strings a scan resolves through: rule ids,
/// type names, allocation-site labels. Thread-safe like the corpus
/// interner (scan workers intern unit facts concurrently); references
/// returned by text() are stable forever (deque-backed storage).
class ScanSymbols {
public:
  /// Sentinel for "no symbol" (e.g. a CallPattern matching any class).
  static constexpr support::LabelId None = 0xffffffffu;

  support::LabelId intern(std::string_view Text);

  const std::string &text(support::LabelId Id) const;

private:
  mutable std::shared_mutex Mutex;
  std::deque<std::string> Texts; ///< Stable storage, indexed by id.
  std::map<std::string, support::LabelId, std::less<>> Index;
};

/// One concrete violation: which rule, where. All symbols resolve
/// through the report's ScanSymbols.
struct Violation {
  support::LabelId Rule = ScanSymbols::None;
  support::LabelId Type = ScanSymbols::None;
  support::LabelId Site = ScanSymbols::None; ///< "l<line>" label.
  unsigned UnitIndex = 0;

  friend bool operator==(const Violation &, const Violation &) = default;
};

/// Per-rule project verdict.
struct RuleVerdict {
  support::LabelId Rule = ScanSymbols::None;
  bool Applicable = false;
  bool Matched = false;
  /// Violation sites the demand-driven refinement pass suppressed as
  /// merge artifacts (always 0 when refinement is off).
  std::uint32_t Suppressed = 0;
  std::vector<Violation> Violations;
};

/// Whole-project report. Verdict insertion goes through addVerdict so
/// the any-match bit is maintained incrementally instead of rescanning
/// the verdict list on every anyMatch() call.
class ProjectReport {
public:
  void addVerdict(RuleVerdict Verdict) {
    AnyMatch = AnyMatch || Verdict.Matched;
    Verdicts.push_back(std::move(Verdict));
  }

  const std::vector<RuleVerdict> &verdicts() const { return Verdicts; }
  bool anyMatch() const { return AnyMatch; }

  /// Resolves \p Id through the report's symbol table.
  const std::string &text(support::LabelId Id) const;

  /// The table every symbol in this report resolves through, pinned here
  /// so the report stays self-contained even if the checker (or scanner)
  /// that produced it goes away first.
  std::shared_ptr<const ScanSymbols> Symbols;

private:
  std::vector<RuleVerdict> Verdicts;
  bool AnyMatch = false;
};

/// Deduplicates repeated sites within \p Violations in place: the same
/// (type, site, unit) reported by several positive clauses collapses to
/// its first occurrence (order otherwise preserved).
void dedupeViolations(std::vector<Violation> &Violations);

/// One rule of a CompiledRuleSet: its id, interned once.
struct CompiledRule {
  support::LabelId Id = ScanSymbols::None;
};

/// An owned rule set with its rule ids interned into one symbol table;
/// compiled()[I] belongs to rules()[I].
class CompiledRuleSet {
public:
  static CompiledRuleSet compile(std::vector<Rule> Rules,
                                 std::shared_ptr<ScanSymbols> Symbols);

  const std::vector<Rule> &rules() const { return Owned; }
  const std::vector<CompiledRule> &compiled() const { return Rules; }
  const std::shared_ptr<ScanSymbols> &symbols() const { return Symbols; }

private:
  CompiledRuleSet() = default;

  std::vector<Rule> Owned;
  std::vector<CompiledRule> Rules;
  std::shared_ptr<ScanSymbols> Symbols;
};

/// Evaluates rules of \p RS against one project (units are borrowed — the
/// scanner shares cached digests across projects without copying): per
/// rule, applicability, match and, for a matched rule, the violating
/// sites of its positive clauses in unit-major, then object order.
///
/// \p Refine runs a demand-driven refinement pass on matched rules.
/// analysis::AnalysisResult::mergedLog unions the usage events of *all*
/// executions of a unit, so a merged usage set can satisfy a conjunctive
/// formula that no single execution satisfies (the merge artifact
/// CryptoGuard's refinement slicing suppresses). Each violation witness is
/// re-checked against the per-execution event lists (units must have been
/// digested with KeepExecutions — a witness without execution data is
/// conservatively kept); witnesses no single execution reproduces are
/// suppressed (counted in RuleVerdict::Suppressed), and a positive clause
/// that loses every witness demotes the match. Refinement never adds a
/// violation.
///
/// \p RuleIndices selects a subset of RS.compiled() by index, in the given
/// order; nullptr evaluates every rule.
ProjectReport
evaluateProject(const CompiledRuleSet &RS,
                const std::vector<const UnitFacts *> &Units,
                const ProjectMetadata &Meta, bool Refine,
                const std::vector<std::uint32_t> *RuleIndices = nullptr);

/// The checker: a rule set applied to analyzed projects, one
/// evaluateProject call (refinement off) per project.
class CryptoChecker {
public:
  /// Uses the full elicited rule set R1-R13 by default.
  CryptoChecker();
  explicit CryptoChecker(std::vector<Rule> Rules);

  const std::vector<Rule> &rules() const { return Set.rules(); }

  /// The symbol table reports produced by this checker resolve through.
  const std::shared_ptr<ScanSymbols> &symbols() const { return Set.symbols(); }

  /// Checks one project (a set of analyzed units plus metadata).
  ProjectReport checkProject(const std::vector<UnitFacts> &Units,
                             const ProjectMetadata &Meta =
                                 ProjectMetadata()) const;

private:
  CompiledRuleSet Set;
};

} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_RULES_CRYPTOCHECKER_H
