//===- tests/ReferenceRules.h - Retained raw-event rule evaluator (oracle) -===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed's clause-by-clause rule evaluator, retained as the
/// differential-testing oracle for rules::RuleEval; it is built only into
/// the tests (library diffcode_reference_rules), never into the shipping
/// libraries. It keeps the original strategy: facts are the
/// AnalysisResult's object table plus its merged usage log, every
/// (pattern, event) probe re-splits the "Class.name/arity" signature, and
/// a project check walks the units once for applicability, once for the
/// match and once for the violation sites.
///
/// Do not optimize this file; its value is being the unchanged seed
/// semantics.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_TESTS_REFERENCERULES_H
#define DIFFCODE_TESTS_REFERENCERULES_H

#include "rules/ChangeClassifier.h"
#include "rules/CryptoChecker.h"

#include <memory>
#include <string>
#include <vector>

namespace diffcode {
namespace rules {
namespace reference {

/// One analyzed unit as the seed evaluator saw it.
struct Facts {
  analysis::ObjectTable Objects;
  analysis::UsageLog Merged;

  static Facts from(const analysis::AnalysisResult &Result) {
    return {Result.Objects, Result.mergedLog()};
  }
};

/// The API classes whose presence makes \p R applicable (the positive
/// clauses' types, deduplicated).
std::vector<std::string> applicableTypes(const Rule &R);

/// CallPattern match against a raw event.
bool matchesEvent(const CallPattern &P, const analysis::UsageEvent &Event);

/// S |= phi over raw events.
bool eval(const ObjectFormula &F,
          const std::vector<analysis::UsageEvent> &Usage);

bool applicable(const Rule &R, const std::vector<Facts> &Units,
                const ProjectMetadata &Meta = ProjectMetadata());

bool matches(const Rule &R, const std::vector<Facts> &Units,
             const ProjectMetadata &Meta = ProjectMetadata());

ChangeClass classify(const Rule &R, const Facts &Old, const Facts &New,
                     const ProjectMetadata &Meta = ProjectMetadata());

/// CryptoChecker::checkProject's report for \p Rules, interned into
/// \p Symbols.
ProjectReport checkProject(const std::vector<Rule> &Rules,
                           const std::shared_ptr<ScanSymbols> &Symbols,
                           const std::vector<Facts> &Units,
                           const ProjectMetadata &Meta = ProjectMetadata());

} // namespace reference
} // namespace rules
} // namespace diffcode

#endif // DIFFCODE_TESTS_REFERENCERULES_H
