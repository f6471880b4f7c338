//===- rules/Rule.cpp ------------------------------------------------------===//

#include "rules/Rule.h"

#include <algorithm>
#include <cassert>

using namespace diffcode;
using namespace diffcode::rules;
using namespace diffcode::analysis;

bool ArgConstraint::matches(const AbstractValue &Value) const {
  switch (K) {
  case Kind::Any:
    return true;
  case Kind::StrEquals:
    if (Value.kind() != AVKind::StrConst)
      return false;
    return std::find(Values.begin(), Values.end(), Value.strValue()) !=
           Values.end();
  case Kind::StrNotEquals:
    if (Value.kind() != AVKind::StrConst)
      return true; // an unknown string is "not provably the safe value"
    return std::find(Values.begin(), Values.end(), Value.strValue()) ==
           Values.end();
  case Kind::StrStartsWith: {
    if (Value.kind() != AVKind::StrConst)
      return false;
    for (const std::string &Prefix : Values)
      if (Value.strValue().rfind(Prefix, 0) == 0)
        return true;
    return false;
  }
  case Kind::IntLess:
    return Value.kind() == AVKind::IntConst && Value.intValue() < IntBound;
  case Kind::IntAtLeast:
    return Value.kind() == AVKind::IntConst && Value.intValue() >= IntBound;
  case Kind::IntEquals:
    return Value.kind() == AVKind::IntConst && Value.intValue() == IntBound;
  case Kind::IsConstant:
    return Value.isConstant();
  case Kind::IsTop:
    return !Value.isConstant();
  }
  return false;
}

bool CallPattern::matches(const FactEvent &Event) const {
  if (!ClassName.empty() && Event.Class != ClassName)
    return false;
  if (Event.Method != MethodName)
    return false;
  if (Arity >= 0 && Event.Args.size() != static_cast<std::size_t>(Arity))
    return false;
  for (const ArgConstraint &Constraint : Args) {
    assert(Constraint.Index >= 1 && "argument indices are 1-based");
    if (Constraint.Index > Event.Args.size())
      return false;
    if (!Constraint.matches(Event.Args[Constraint.Index - 1]))
      return false;
  }
  return true;
}

ObjectFormula ObjectFormula::exists(CallPattern Pattern) {
  ObjectFormula F;
  F.K = Kind::Exists;
  F.Pattern = std::move(Pattern);
  return F;
}

ObjectFormula ObjectFormula::notExists(CallPattern Pattern) {
  ObjectFormula F;
  F.K = Kind::NotExists;
  F.Pattern = std::move(Pattern);
  return F;
}

ObjectFormula ObjectFormula::all(std::vector<ObjectFormula> Children) {
  ObjectFormula F;
  F.K = Kind::And;
  F.Children = std::move(Children);
  return F;
}

ObjectFormula ObjectFormula::any(std::vector<ObjectFormula> Children) {
  ObjectFormula F;
  F.K = Kind::Or;
  F.Children = std::move(Children);
  return F;
}

bool ObjectFormula::eval(const std::vector<FactEvent> &Usage) const {
  switch (K) {
  case Kind::Exists:
    for (const FactEvent &Event : Usage)
      if (Pattern.matches(Event))
        return true;
    return false;
  case Kind::NotExists:
    for (const FactEvent &Event : Usage)
      if (Pattern.matches(Event))
        return false;
    return true;
  case Kind::And:
    for (const ObjectFormula &Child : Children)
      if (!Child.eval(Usage))
        return false;
    return true;
  case Kind::Or:
    for (const ObjectFormula &Child : Children)
      if (Child.eval(Usage))
        return true;
    return false;
  }
  return false;
}

const std::vector<std::uint32_t> *
UnitFacts::bucket(std::string_view Type) const {
  for (const auto &[T, Indices] : Buckets)
    if (T == Type)
      return &Indices;
  return nullptr;
}

UnitFacts UnitFacts::from(const AnalysisResult &Result, bool KeepExecutions) {
  // Signatures are "Class.name/arity"; anything else matches no pattern.
  auto Digest = [](std::vector<UsageEvent> Events) {
    std::vector<FactEvent> Out;
    Out.reserve(Events.size());
    for (UsageEvent &Event : Events) {
      const std::string &Sig = Event.MethodSig;
      std::size_t Slash = Sig.rfind('/');
      std::size_t Dot = Sig.rfind('.', Slash);
      if (Slash == std::string::npos || Dot == std::string::npos)
        continue;
      Out.push_back({Sig.substr(0, Dot), Sig.substr(Dot + 1, Slash - Dot - 1),
                     std::move(Event.Args)});
    }
    return Out;
  };

  UnitFacts Facts;
  UsageLog Merged = Result.mergedLog();
  Facts.Objects.reserve(Merged.size());
  for (auto &[ObjId, Events] : Merged) {
    const AbstractObject &Obj = Result.Objects.get(ObjId);
    FactObject O;
    O.Type = Obj.TypeName;
    O.Site = Obj.siteLabel();
    O.Merged = Digest(std::move(Events));
    if (KeepExecutions)
      for (const UsageLog &Exec : Result.Executions) {
        auto It = Exec.find(ObjId);
        if (It != Exec.end())
          O.Executions.push_back(Digest(It->second));
      }
    auto Index = static_cast<std::uint32_t>(Facts.Objects.size());
    auto Bucket =
        std::find_if(Facts.Buckets.begin(), Facts.Buckets.end(),
                     [&](const auto &B) { return B.first == O.Type; });
    if (Bucket == Facts.Buckets.end())
      Facts.Buckets.push_back({O.Type, {Index}});
    else
      Bucket->second.push_back(Index);
    Facts.Objects.push_back(std::move(O));
  }
  return Facts;
}

bool RuleEval::satisfied(std::size_t ClauseIdx) {
  signed char &M = Memo[ClauseIdx];
  if (M < 0) {
    const Rule::Clause &Clause = R.Clauses[ClauseIdx];
    M = 0;
    for (const UnitFacts *Facts : Units)
      if (const std::vector<std::uint32_t> *Bucket =
              Facts->bucket(Clause.TypeName))
        for (std::uint32_t Idx : *Bucket)
          if (Clause.Formula.eval(Facts->Objects[Idx].Merged)) {
            M = 1;
            return true;
          }
  }
  return M == 1;
}

bool RuleEval::applicable(const ProjectMetadata &Meta) {
  if (R.RequireAndroid && !Meta.IsAndroid)
    return false;
  // Composite rules (R13): applicable only when every positive clause is
  // satisfied — Figure 10 counts 8 projects (1.5%) as applicable to R13,
  // far fewer than the 211 with any Cipher usage, so presence of the
  // clause *types* alone cannot be the paper's notion.
  if (R.Clauses.size() > 1) {
    for (std::size_t I = 0; I < R.Clauses.size(); ++I)
      if (!R.Clauses[I].Negated && !satisfied(I))
        return false;
    return true;
  }
  // Otherwise the positive clauses' types (at least one) are all present.
  bool AnyType = false;
  for (const Rule::Clause &Clause : R.Clauses) {
    if (Clause.Negated)
      continue;
    AnyType = true;
    if (std::none_of(Units.begin(), Units.end(), [&](const UnitFacts *F) {
          return F->bucket(Clause.TypeName) != nullptr;
        }))
      return false;
  }
  return AnyType;
}

bool RuleEval::matches(const ProjectMetadata &Meta) {
  if (R.RequireAndroid && !Meta.IsAndroid)
    return false;
  if (R.MinSdkAtLeast >= 0 && Meta.MinSdkVersion < R.MinSdkAtLeast)
    return false;
  if (R.RequireNoLprngFix && Meta.HasLinuxPrngFix)
    return false;
  for (std::size_t I = 0; I < R.Clauses.size(); ++I)
    if (R.Clauses[I].Negated ? satisfied(I) : !satisfied(I))
      return false;
  return true;
}

static std::vector<const UnitFacts *>
pointersTo(const std::vector<UnitFacts> &Units) {
  std::vector<const UnitFacts *> Out;
  Out.reserve(Units.size());
  for (const UnitFacts &Facts : Units)
    Out.push_back(&Facts);
  return Out;
}

bool diffcode::rules::ruleApplicable(const Rule &R,
                                     const std::vector<UnitFacts> &Units,
                                     const ProjectMetadata &Meta) {
  return RuleEval(R, pointersTo(Units)).applicable(Meta);
}

bool diffcode::rules::ruleMatches(const Rule &R,
                                  const std::vector<UnitFacts> &Units,
                                  const ProjectMetadata &Meta) {
  return RuleEval(R, pointersTo(Units)).matches(Meta);
}
