//===- rules/Rule.h - Security-rule language (Section 6.3) -----------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rules of the form `t : phi` where phi is interpreted over an abstract
/// object's usage set S in P(Methods x AStates). Atoms test for the
/// (non-)existence of a call matching a CallPattern; formulas compose with
/// and/or; whole-object clauses compose conjunctively into composite rules
/// and may be negated (R13 requires the *absence* of an HMAC object).
///
/// Example (R1): MessageDigest : getInstance(X) /\ X = "SHA-1"
///
///   Rule{ Clauses: [ {TypeName: "MessageDigest",
///                     Formula: exists(getInstance, arg(1) in {SHA-1,SHA1})} ] }
///
/// Rules are evaluated in one place: RuleEval, over UnitFacts digests.
/// Change classification, the checker and the scanner all go through it.
/// The seed's walk over raw UsageEvents survives only as a test oracle
/// (tests/ReferenceRules.h).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_RULES_RULE_H
#define DIFFCODE_RULES_RULE_H

#include "analysis/AbstractInterpreter.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diffcode {
namespace rules {

/// Constraint on one argument of a matched call (1-based index).
struct ArgConstraint {
  enum class Kind {
    Any,           ///< Always satisfied (placeholder `_`).
    StrEquals,     ///< Value is a string constant equal to one of Values.
    StrNotEquals,  ///< Value is absent/top/other than all of Values.
    StrStartsWith, ///< String constant with one of Values as prefix.
    IntLess,       ///< Integer constant < IntBound.
    IntAtLeast,    ///< Integer constant >= IntBound.
    IntEquals,     ///< Integer constant == IntBound.
    IsConstant,    ///< Program constant (e.g. constbyte[] — static IV/key).
    IsTop,         ///< Not a program constant.
  };

  unsigned Index = 1;
  Kind K = Kind::Any;
  std::vector<std::string> Values;
  std::int64_t IntBound = 0;

  bool matches(const analysis::AbstractValue &Value) const;
};

/// One usage event of a digested unit (UnitFacts): its "Class.name/arity"
/// signature split once into class and method; the arity is Args.size().
struct FactEvent {
  std::string Class;
  std::string Method;
  std::vector<analysis::AbstractValue> Args;
};

/// Pattern over a single (method, state) pair.
struct CallPattern {
  std::string ClassName;  ///< Empty = any declaring class.
  std::string MethodName; ///< "<init>", "getInstance", ...
  int Arity = -1;         ///< -1 = any arity.
  std::vector<ArgConstraint> Args;

  bool matches(const FactEvent &Event) const;
};

/// Formula phi over a usage set S.
class ObjectFormula {
public:
  enum class Kind { Exists, NotExists, And, Or };

  static ObjectFormula exists(CallPattern Pattern);
  static ObjectFormula notExists(CallPattern Pattern);
  static ObjectFormula all(std::vector<ObjectFormula> Children); // and
  static ObjectFormula any(std::vector<ObjectFormula> Children); // or

  /// S |= phi.
  bool eval(const std::vector<FactEvent> &Usage) const;

  Kind kind() const { return K; }
  const CallPattern &pattern() const { return Pattern; }
  const std::vector<ObjectFormula> &children() const { return Children; }

private:
  Kind K = Kind::Exists;
  CallPattern Pattern;
  std::vector<ObjectFormula> Children;
};

/// Metadata the Android-specific rule R6 consults; for mined projects this
/// comes from the manifest, for the synthetic corpus from the generator.
struct ProjectMetadata {
  bool IsAndroid = false;
  int MinSdkVersion = 0;
  bool HasLinuxPrngFix = true;
};

/// A (possibly composite) security rule.
struct Rule {
  /// One `t : phi` clause; Negated clauses require that *no* object of the
  /// type satisfies phi.
  struct Clause {
    std::string TypeName;
    ObjectFormula Formula;
    bool Negated = false;
  };

  std::string Id;          ///< "R1" ... "R13", "CL1" ... "CL5".
  std::string Description; ///< Human-readable summary (Figure 9).
  std::vector<Clause> Clauses;

  // Metadata guards (R6). MinSdkAtLeast < 0 disables the guard;
  // RequireAndroid additionally gates *applicability* (an Android-only
  // rule is not applicable to a server-side project at all).
  int MinSdkAtLeast = -1;
  bool RequireNoLprngFix = false;
  bool RequireAndroid = false;
};

/// One abstract object of a digested unit.
struct FactObject {
  std::string Type;
  std::string Site; ///< "l<line>" label.
  /// Events of the merged (all-executions) usage log, in log order.
  std::vector<FactEvent> Merged;
  /// Per-execution event lists for the scanner's refinement pass; only
  /// populated when the unit was digested with KeepExecutions, and only
  /// for executions in which this object appears.
  std::vector<std::vector<FactEvent>> Executions;
};

/// The facts every rule evaluation reads: one analyzed compilation unit,
/// digested once and owning everything it holds, so it outlives the
/// AnalysisResult it was built from.
struct UnitFacts {
  /// The objects in merged-log order (ascending object id), which is the
  /// order violations are emitted in.
  std::vector<FactObject> Objects;

  /// Per-type buckets of indices into Objects (each bucket ascending), in
  /// order of first appearance.
  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> Buckets;

  /// Indices of the objects of \p Type; nullptr when none.
  const std::vector<std::uint32_t> *bucket(std::string_view Type) const;

  /// Digests \p Result. Events whose signature does not parse as
  /// "Class.name/arity" match no pattern and are dropped (their object
  /// stays). \p KeepExecutions additionally retains the per-execution
  /// event lists the refinement pass needs.
  static UnitFacts from(const analysis::AnalysisResult &Result,
                        bool KeepExecutions = false);
};

/// One rule evaluated over one project's units: the evaluator behind
/// ruleApplicable, ruleMatches, classifyChange and evaluateProject (so
/// CryptoChecker and the scanner too). Each clause is scanned at most once
/// (memoized), so applicability and match share their work. \p R, the
/// unit list and the units are borrowed and must outlive the evaluator.
class RuleEval {
public:
  RuleEval(const Rule &R, std::span<const UnitFacts *const> Units)
      : R(R), Units(Units), Memo(R.Clauses.size(), -1) {}

  bool applicable(const ProjectMetadata &Meta);
  bool matches(const ProjectMetadata &Meta);

private:
  bool satisfied(std::size_t ClauseIdx);

  const Rule &R;
  std::span<const UnitFacts *const> Units;
  std::vector<signed char> Memo; // -1 unknown, 0 false, 1 true
};

/// Rule applicability over a set of units (a project).
bool ruleApplicable(const Rule &R, const std::vector<UnitFacts> &Units,
                    const ProjectMetadata &Meta = ProjectMetadata());

/// Rule match over a set of units: every positive clause satisfied by
/// some object in some unit, every negated clause unsatisfied everywhere,
/// metadata guards hold.
bool ruleMatches(const Rule &R, const std::vector<UnitFacts> &Units,
                 const ProjectMetadata &Meta = ProjectMetadata());

} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_RULES_RULE_H
