//===- rules/CryptoChecker.cpp ---------------------------------------------===//

#include "rules/CryptoChecker.h"

#include "rules/BuiltinRules.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

using namespace diffcode;
using namespace diffcode::rules;

support::LabelId ScanSymbols::intern(std::string_view Text) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = Index.find(Text);
    if (It != Index.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto It = Index.find(Text);
  if (It != Index.end())
    return It->second;
  auto Id = static_cast<support::LabelId>(Texts.size());
  Texts.emplace_back(Text);
  Index.emplace(Texts.back(), Id);
  return Id;
}

const std::string &ScanSymbols::text(support::LabelId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  if (Id >= Texts.size())
    throw std::out_of_range("ScanSymbols::text: unknown id");
  return Texts[Id];
}

const std::string &ProjectReport::text(support::LabelId Id) const {
  if (!Symbols)
    throw std::logic_error("ProjectReport::text: no symbol table pinned");
  return Symbols->text(Id);
}

void rules::dedupeViolations(std::vector<Violation> &Violations) {
  if (Violations.size() < 2)
    return;
  std::vector<Violation> Seen;
  auto Duplicate = [&Seen](const Violation &V) {
    for (const Violation &S : Seen)
      if (S.Type == V.Type && S.Site == V.Site && S.UnitIndex == V.UnitIndex)
        return true;
    Seen.push_back(V);
    return false;
  };
  Violations.erase(
      std::remove_if(Violations.begin(), Violations.end(), Duplicate),
      Violations.end());
}

CompiledRuleSet CompiledRuleSet::compile(std::vector<Rule> Rules,
                                         std::shared_ptr<ScanSymbols> Symbols) {
  CompiledRuleSet Set;
  Set.Owned = std::move(Rules);
  Set.Symbols = std::move(Symbols);
  Set.Rules.reserve(Set.Owned.size());
  for (const Rule &R : Set.Owned)
    Set.Rules.push_back({Set.Symbols->intern(R.Id)});
  return Set;
}

namespace {

/// A violation witness: one (unit, object) pair satisfying a positive
/// clause's formula on the merged log.
struct Witness {
  unsigned Unit;
  std::uint32_t Obj;
};

/// Witnesses per positive clause of \p R, in clause order; each clause's
/// list in unit-major, then ascending-object order.
std::vector<std::vector<Witness>>
collectWitnesses(const Rule &R, const std::vector<const UnitFacts *> &Units) {
  std::vector<std::vector<Witness>> Out;
  for (const Rule::Clause &Clause : R.Clauses) {
    if (Clause.Negated)
      continue;
    std::vector<Witness> W;
    for (unsigned UnitIndex = 0; UnitIndex < Units.size(); ++UnitIndex) {
      const UnitFacts &Facts = *Units[UnitIndex];
      if (const std::vector<std::uint32_t> *Bucket =
              Facts.bucket(Clause.TypeName))
        for (std::uint32_t Idx : *Bucket)
          if (Clause.Formula.eval(Facts.Objects[Idx].Merged))
            W.push_back({UnitIndex, Idx});
    }
    Out.push_back(std::move(W));
  }
  return Out;
}

/// The violations \p Clauses' witnesses anchor, deduped per site.
std::vector<Violation>
witnessViolations(support::LabelId RuleId, ScanSymbols &Symbols,
                  const std::vector<const UnitFacts *> &Units,
                  const std::vector<std::vector<Witness>> &Clauses) {
  std::vector<Violation> Out;
  for (const std::vector<Witness> &W : Clauses)
    for (const Witness &Wit : W) {
      const FactObject &O = Units[Wit.Unit]->Objects[Wit.Obj];
      Out.push_back({RuleId, Symbols.intern(O.Type), Symbols.intern(O.Site),
                     Wit.Unit});
    }
  dedupeViolations(Out);
  return Out;
}

/// True when some single execution of the witness object reproduces the
/// clause formula. Objects digested without execution data cannot be
/// disproven and are conservatively kept.
bool witnessSurvives(const Rule::Clause &Clause, const FactObject &O) {
  if (O.Executions.empty())
    return true;
  for (const std::vector<FactEvent> &Exec : O.Executions)
    if (Clause.Formula.eval(Exec))
      return true;
  return false;
}

} // namespace

ProjectReport
rules::evaluateProject(const CompiledRuleSet &RS,
                       const std::vector<const UnitFacts *> &Units,
                       const ProjectMetadata &Meta, bool Refine,
                       const std::vector<std::uint32_t> *RuleIndices) {
  ProjectReport Report;
  Report.Symbols = RS.symbols();
  ScanSymbols &Symbols = *RS.symbols();
  std::vector<std::uint32_t> Everything;
  if (!RuleIndices) {
    Everything.resize(RS.rules().size());
    for (std::uint32_t I = 0; I < Everything.size(); ++I)
      Everything[I] = I;
    RuleIndices = &Everything;
  }
  for (std::uint32_t RuleIdx : *RuleIndices) {
    const Rule &R = RS.rules()[RuleIdx];
    RuleEval Eval(R, Units);
    RuleVerdict Verdict;
    Verdict.Rule = RS.compiled()[RuleIdx].Id;
    Verdict.Applicable = Eval.applicable(Meta);
    if (Verdict.Applicable && Eval.matches(Meta)) {
      Verdict.Matched = true;
      std::vector<std::vector<Witness>> Clauses = collectWitnesses(R, Units);
      std::vector<Violation> All =
          witnessViolations(Verdict.Rule, Symbols, Units, Clauses);
      if (!Refine) {
        Verdict.Violations = std::move(All);
      } else {
        // Keep only witnesses some single execution reproduces; a
        // positive clause losing every witness demotes the match.
        bool Demoted = false;
        std::vector<std::vector<Witness>> Kept;
        std::size_t ClauseIdx = 0;
        for (const Rule::Clause &Clause : R.Clauses) {
          if (Clause.Negated)
            continue;
          const std::vector<Witness> &W = Clauses[ClauseIdx++];
          std::vector<Witness> Survivors;
          for (const Witness &Wit : W)
            if (witnessSurvives(Clause, Units[Wit.Unit]->Objects[Wit.Obj]))
              Survivors.push_back(Wit);
          if (!W.empty() && Survivors.empty())
            Demoted = true;
          Kept.push_back(std::move(Survivors));
        }
        if (Demoted) {
          Verdict.Matched = false;
          Verdict.Suppressed = static_cast<std::uint32_t>(All.size());
        } else {
          Verdict.Violations =
              witnessViolations(Verdict.Rule, Symbols, Units, Kept);
          Verdict.Suppressed = static_cast<std::uint32_t>(
              All.size() - Verdict.Violations.size());
        }
      }
    }
    Report.addVerdict(std::move(Verdict));
  }
  return Report;
}

CryptoChecker::CryptoChecker() : CryptoChecker(elicitedRules()) {}

CryptoChecker::CryptoChecker(std::vector<Rule> Rules)
    : Set(CompiledRuleSet::compile(std::move(Rules),
                                   std::make_shared<ScanSymbols>())) {}

ProjectReport
CryptoChecker::checkProject(const std::vector<UnitFacts> &Units,
                            const ProjectMetadata &Meta) const {
  std::vector<const UnitFacts *> Borrowed;
  Borrowed.reserve(Units.size());
  for (const UnitFacts &Facts : Units)
    Borrowed.push_back(&Facts);
  return evaluateProject(Set, Borrowed, Meta, /*Refine=*/false);
}
