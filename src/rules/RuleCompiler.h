//===- rules/RuleCompiler.h - Other spellings of the fact digest -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Other spellings of the fact digest, kept for callers that still use
/// them: UnitScanFacts is rules::UnitFacts (rules/Rule.h), and digestUnit
/// is UnitFacts::from. Rule sets and evaluateProject live in
/// rules/CryptoChecker.h.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_RULES_RULECOMPILER_H
#define DIFFCODE_RULES_RULECOMPILER_H

#include "rules/CryptoChecker.h"
#include "rules/Rule.h"

namespace diffcode {
namespace rules {

using UnitScanFacts = UnitFacts;

/// UnitFacts::from(Result, KeepExecutions); the digest interns nothing,
/// so the symbol table goes unused.
inline UnitFacts digestUnit(const analysis::AnalysisResult &Result,
                            ScanSymbols &, bool KeepExecutions) {
  return UnitFacts::from(Result, KeepExecutions);
}

} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_RULES_RULECOMPILER_H
