//===- rules/ChangeClassifier.cpp ------------------------------------------===//

#include "rules/ChangeClassifier.h"

using namespace diffcode;
using namespace diffcode::rules;

UnitVerdict diffcode::rules::unitVerdict(const Rule &R, const UnitFacts &Facts,
                                        const ProjectMetadata &Meta) {
  const UnitFacts *Unit[] = {&Facts};
  RuleEval Eval(R, Unit);
  UnitVerdict V;
  V.Matches = Eval.matches(Meta);
  V.Applicable = Eval.applicable(Meta);
  return V;
}

ChangeClass diffcode::rules::classifyChange(const UnitVerdict &Old,
                                            const UnitVerdict &New) {
  // A *fix* repairs a usage that still exists: if the trigger vanished
  // only because the usage itself was deleted, the change is a removal,
  // not a fix (and symmetrically for introductions). Without this
  // refinement every crypto-code deletion would count as a security fix.
  if (Old.Matches && !New.Matches)
    return New.Applicable ? ChangeClass::SecurityFix
                          : ChangeClass::NonSemantic;
  if (!Old.Matches && New.Matches)
    return Old.Applicable ? ChangeClass::BuggyChange
                          : ChangeClass::NonSemantic;
  return ChangeClass::NonSemantic;
}

ChangeClass diffcode::rules::classifyChange(const Rule &R,
                                            const UnitFacts &OldFacts,
                                            const UnitFacts &NewFacts,
                                            const ProjectMetadata &Meta) {
  return classifyChange(unitVerdict(R, OldFacts, Meta),
                        unitVerdict(R, NewFacts, Meta));
}

const char *diffcode::rules::changeClassName(ChangeClass C) {
  switch (C) {
  case ChangeClass::SecurityFix:
    return "fix";
  case ChangeClass::BuggyChange:
    return "bug";
  case ChangeClass::NonSemantic:
    return "none";
  }
  return "none";
}
