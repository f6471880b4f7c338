//===- rules/ChangeClassifier.cpp ------------------------------------------===//

#include "rules/ChangeClassifier.h"

using namespace diffcode;
using namespace diffcode::rules;

ChangeClass diffcode::rules::classifyChange(const Rule &R,
                                            const UnitFacts &OldFacts,
                                            const UnitFacts &NewFacts,
                                            const ProjectMetadata &Meta) {
  const UnitFacts *OldUnit[] = {&OldFacts};
  const UnitFacts *NewUnit[] = {&NewFacts};
  RuleEval Old(R, OldUnit), New(R, NewUnit);
  bool OldTriggers = Old.matches(Meta);
  bool NewTriggers = New.matches(Meta);
  // A *fix* repairs a usage that still exists: if the trigger vanished
  // only because the usage itself was deleted, the change is a removal,
  // not a fix (and symmetrically for introductions). Without this
  // refinement every crypto-code deletion would count as a security fix.
  if (OldTriggers && !NewTriggers)
    return New.applicable(Meta) ? ChangeClass::SecurityFix
                                : ChangeClass::NonSemantic;
  if (!OldTriggers && NewTriggers)
    return Old.applicable(Meta) ? ChangeClass::BuggyChange
                                : ChangeClass::NonSemantic;
  return ChangeClass::NonSemantic;
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
