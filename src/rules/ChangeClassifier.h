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
/// Both versions are evaluated by RuleEval over their UnitFacts digests,
/// the same evaluator CryptoChecker and the scanner run. Callers digest
/// each version once and classify under every rule from the two digests
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

/// Classifies an (old, new) version pair under \p R.
ChangeClass classifyChange(const Rule &R, const UnitFacts &OldFacts,
                           const UnitFacts &NewFacts,
                           const ProjectMetadata &Meta = ProjectMetadata());

/// Display name ("fix", "bug", "none").
const char *changeClassName(ChangeClass C);

} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_RULES_CHANGECLASSIFIER_H
