//===- tests/ReferenceRules.cpp --------------------------------------------===//

#include "ReferenceRules.h"

#include <algorithm>
#include <cassert>

using namespace diffcode;
using namespace diffcode::rules;
using namespace diffcode::analysis;

std::vector<std::string> reference::applicableTypes(const Rule &R) {
  std::vector<std::string> Types;
  for (const Rule::Clause &C : R.Clauses)
    if (!C.Negated &&
        std::find(Types.begin(), Types.end(), C.TypeName) == Types.end())
      Types.push_back(C.TypeName);
  return Types;
}

bool reference::matchesEvent(const CallPattern &P, const UsageEvent &Event) {
  // Signatures are "Class.name/arity".
  std::size_t Slash = Event.MethodSig.rfind('/');
  std::size_t Dot = Event.MethodSig.rfind('.', Slash);
  if (Slash == std::string::npos || Dot == std::string::npos)
    return false;
  std::string EventClass = Event.MethodSig.substr(0, Dot);
  std::string EventName = Event.MethodSig.substr(Dot + 1, Slash - Dot - 1);

  if (!P.ClassName.empty() && EventClass != P.ClassName)
    return false;
  if (EventName != P.MethodName)
    return false;
  if (P.Arity >= 0 && Event.Args.size() != static_cast<std::size_t>(P.Arity))
    return false;
  for (const ArgConstraint &Constraint : P.Args) {
    assert(Constraint.Index >= 1 && "argument indices are 1-based");
    if (Constraint.Index > Event.Args.size())
      return false;
    if (!Constraint.matches(Event.Args[Constraint.Index - 1]))
      return false;
  }
  return true;
}

bool reference::eval(const ObjectFormula &F,
                     const std::vector<UsageEvent> &Usage) {
  switch (F.kind()) {
  case ObjectFormula::Kind::Exists:
    for (const UsageEvent &Event : Usage)
      if (matchesEvent(F.pattern(), Event))
        return true;
    return false;
  case ObjectFormula::Kind::NotExists:
    for (const UsageEvent &Event : Usage)
      if (matchesEvent(F.pattern(), Event))
        return false;
    return true;
  case ObjectFormula::Kind::And:
    for (const ObjectFormula &Child : F.children())
      if (!eval(Child, Usage))
        return false;
    return true;
  case ObjectFormula::Kind::Or:
    for (const ObjectFormula &Child : F.children())
      if (eval(Child, Usage))
        return true;
    return false;
  }
  return false;
}

namespace {

bool someObjectSatisfies(const reference::Facts &Facts,
                         const std::string &TypeName,
                         const ObjectFormula &Formula) {
  for (const auto &[ObjId, Events] : Facts.Merged) {
    if (Facts.Objects.get(ObjId).TypeName != TypeName)
      continue;
    if (reference::eval(Formula, Events))
      return true;
  }
  return false;
}

bool hasObjectOfType(const reference::Facts &Facts,
                     const std::string &TypeName) {
  for (const auto &[ObjId, Events] : Facts.Merged)
    if (Facts.Objects.get(ObjId).TypeName == TypeName)
      return true;
  return false;
}

bool anyUnitSatisfies(const std::vector<reference::Facts> &Units,
                      const Rule::Clause &Clause) {
  for (const reference::Facts &Facts : Units)
    if (someObjectSatisfies(Facts, Clause.TypeName, Clause.Formula))
      return true;
  return false;
}

} // namespace

bool reference::applicable(const Rule &R, const std::vector<Facts> &Units,
                           const ProjectMetadata &Meta) {
  if (R.RequireAndroid && !Meta.IsAndroid)
    return false;
  // Composite rules: every positive clause satisfied somewhere.
  if (R.Clauses.size() > 1) {
    for (const Rule::Clause &Clause : R.Clauses)
      if (!Clause.Negated && !anyUnitSatisfies(Units, Clause))
        return false;
    return true;
  }

  for (const std::string &Type : applicableTypes(R)) {
    bool Found = false;
    for (const Facts &F : Units)
      if (hasObjectOfType(F, Type)) {
        Found = true;
        break;
      }
    if (!Found)
      return false;
  }
  return !applicableTypes(R).empty();
}

bool reference::matches(const Rule &R, const std::vector<Facts> &Units,
                        const ProjectMetadata &Meta) {
  if (R.RequireAndroid && !Meta.IsAndroid)
    return false;
  if (R.MinSdkAtLeast >= 0 && Meta.MinSdkVersion < R.MinSdkAtLeast)
    return false;
  if (R.RequireNoLprngFix && Meta.HasLinuxPrngFix)
    return false;

  for (const Rule::Clause &Clause : R.Clauses) {
    bool Satisfied = anyUnitSatisfies(Units, Clause);
    if (Clause.Negated ? Satisfied : !Satisfied)
      return false;
  }
  return true;
}

ChangeClass reference::classify(const Rule &R, const Facts &Old,
                                const Facts &New,
                                const ProjectMetadata &Meta) {
  bool OldTriggers = matches(R, {Old}, Meta);
  bool NewTriggers = matches(R, {New}, Meta);
  if (OldTriggers && !NewTriggers)
    return applicable(R, {New}, Meta) ? ChangeClass::SecurityFix
                                      : ChangeClass::NonSemantic;
  if (!OldTriggers && NewTriggers)
    return applicable(R, {Old}, Meta) ? ChangeClass::BuggyChange
                                      : ChangeClass::NonSemantic;
  return ChangeClass::NonSemantic;
}

ProjectReport
reference::checkProject(const std::vector<Rule> &Rules,
                        const std::shared_ptr<ScanSymbols> &Symbols,
                        const std::vector<Facts> &Units,
                        const ProjectMetadata &Meta) {
  ProjectReport Report;
  Report.Symbols = Symbols;
  for (const Rule &R : Rules) {
    RuleVerdict Verdict;
    Verdict.Rule = Symbols->intern(R.Id);
    Verdict.Applicable = applicable(R, Units, Meta);
    if (Verdict.Applicable && matches(R, Units, Meta)) {
      Verdict.Matched = true;
      // Violating sites of the positive clauses; negated clauses have no
      // site to report.
      for (const Rule::Clause &Clause : R.Clauses) {
        if (Clause.Negated)
          continue;
        for (unsigned UnitIndex = 0; UnitIndex < Units.size(); ++UnitIndex) {
          const Facts &F = Units[UnitIndex];
          for (const auto &[ObjId, Events] : F.Merged) {
            const AbstractObject &Obj = F.Objects.get(ObjId);
            if (Obj.TypeName == Clause.TypeName &&
                eval(Clause.Formula, Events))
              Verdict.Violations.push_back(
                  {Verdict.Rule, Symbols->intern(Obj.TypeName),
                   Symbols->intern(Obj.siteLabel()), UnitIndex});
          }
        }
      }
      dedupeViolations(Verdict.Violations);
    }
    Report.addVerdict(std::move(Verdict));
  }
  return Report;
}
