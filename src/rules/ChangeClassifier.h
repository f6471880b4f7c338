//===- rules/ChangeClassifier.h - fix / bug / none (Section 6.2) -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies a code change against a rule: a *security fix* removes a
/// violation (rule triggers in the old version, not in the new), a *buggy
/// change* introduces one, and everything else is *non-semantic* with
/// respect to that rule. This is the ground-truthing mechanism behind
/// Figure 7.
///
/// Classification reads two facts of each version under the rule: does it
/// match, and does it apply. Both come from RuleEval over the version's
/// UnitFacts digest (the evaluator CryptoChecker and the scanner run) and
/// depend on that version alone, so a caller serving one version to
/// several changes takes its UnitVerdict once (core::DiffCode::
/// analyzeVersion) and classifies each change from two verdicts
/// (core::DiffCode::assembleChange).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_RULES_CHANGECLASSIFIER_H
#define DIFFCODE_RULES_CHANGECLASSIFIER_H

#include "rules/Rule.h"

namespace diffcode {
namespace rules {

/// Verdict of classifying one change under one rule.
enum class ChangeClass { SecurityFix, BuggyChange, NonSemantic };

/// What classification reads of one version under one rule.
struct UnitVerdict {
  bool Matches = false;    ///< The rule triggers on the version.
  bool Applicable = false; ///< The rule applies to the version.

  bool operator==(const UnitVerdict &) const = default;
};

/// \p R's verdict on the version digested into \p Facts.
UnitVerdict unitVerdict(const Rule &R, const UnitFacts &Facts,
                        const ProjectMetadata &Meta = ProjectMetadata());

/// Classifies an (old, new) version pair from their verdicts under one
/// rule.
ChangeClass classifyChange(const UnitVerdict &Old, const UnitVerdict &New);

/// Classifies an (old, new) version pair under \p R: the verdict
/// comparison above over each side's unitVerdict.
ChangeClass classifyChange(const Rule &R, const UnitFacts &OldFacts,
                           const UnitFacts &NewFacts,
                           const ProjectMetadata &Meta = ProjectMetadata());

/// Display name ("fix", "bug", "none").
const char *changeClassName(ChangeClass C);

} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_RULES_CHANGECLASSIFIER_H
