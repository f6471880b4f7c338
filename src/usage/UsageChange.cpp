//===- usage/UsageChange.cpp -----------------------------------------------===//

#include "usage/UsageChange.h"

#include "support/FaultInjection.h"
#include "support/Hungarian.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>

using namespace diffcode;
using namespace diffcode::usage;
using support::Interner;
using support::LabelId;
using support::PathId;

bool UsageChange::sameFeatures(const UsageChange &Other) const {
  if (TypeName != Other.TypeName)
    return false;
  if (Table == Other.Table)
    return Removed == Other.Removed && Added == Other.Added;
  // Different tables (e.g. the parallel-vs-serial differential harness
  // compares two independent pipelines): id values are not comparable,
  // fall back to structural equality.
  auto SamePaths = [&](const std::vector<PathId> &A,
                       const std::vector<PathId> &B) {
    if (A.size() != B.size())
      return false;
    for (std::size_t I = 0; I < A.size(); ++I)
      if (Table->materialize(A[I]) != Other.Table->materialize(B[I]))
        return false;
    return true;
  };
  return SamePaths(Removed, Other.Removed) && SamePaths(Added, Other.Added);
}

std::vector<FeaturePath> UsageChange::removedPaths() const {
  std::vector<FeaturePath> Out;
  Out.reserve(Removed.size());
  for (PathId Id : Removed)
    Out.push_back(Table->materialize(Id));
  return Out;
}

std::vector<FeaturePath> UsageChange::addedPaths() const {
  std::vector<FeaturePath> Out;
  Out.reserve(Added.size());
  for (PathId Id : Added)
    Out.push_back(Table->materialize(Id));
  return Out;
}

std::string UsageChange::pathString(PathId Id) const {
  return Table->pathString(Id);
}

std::string UsageChange::str() const {
  std::string Out;
  for (PathId Id : Removed)
    Out += "- " + Table->pathString(Id) + "\n";
  for (PathId Id : Added)
    Out += "+ " + Table->pathString(Id) + "\n";
  return Out;
}

UsageChange UsageChange::intern(Interner &Table, std::string TypeName,
                                const std::vector<FeaturePath> &Removed,
                                const std::vector<FeaturePath> &Added,
                                std::string Origin) {
  UsageChange Change;
  Change.TypeName = std::move(TypeName);
  Change.Origin = std::move(Origin);
  Change.Table = &Table;
  Change.Removed.reserve(Removed.size());
  for (const FeaturePath &Path : Removed)
    Change.Removed.push_back(Table.path(Path));
  Change.Added.reserve(Added.size());
  for (const FeaturePath &Path : Added)
    Change.Added.push_back(Table.path(Path));
  return Change;
}

std::vector<PathId>
diffcode::usage::shortestPaths(std::vector<PathId> Paths,
                               const Interner &Table) {
  if (Paths.size() < 2)
    return Paths;

  // Sort (indirectly) by label-id-lexicographic order. Under *any* total
  // order on labels, a sorted sequence places every strict prefix of P
  // before P, and — key to the linear pass — if some kept K1 is a strict
  // prefix of P while K1 <= K2 <= P for the last-kept K2, then K2 is
  // itself a prefix of P: at the first position i where K2 diverges from
  // P, i < |K1| would give P[i] = K1[i] < K2[i], i.e. P < K2. So testing
  // only the last-kept survivor is sufficient.
  std::vector<std::size_t> Order(Paths.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    return Table.labelsOf(Paths[A]) < Table.labelsOf(Paths[B]);
  });

  auto IsStrictPrefix = [](const std::vector<LabelId> &A,
                           const std::vector<LabelId> &B) {
    if (A.size() >= B.size())
      return false;
    return std::equal(A.begin(), A.end(), B.begin());
  };

  // Linear elimination: keep the current path unless the last survivor is
  // a strict prefix of it. Duplicates survive (a path is not a strict
  // prefix of itself), exactly as in the quadratic reference.
  std::vector<bool> Keep(Paths.size(), false);
  std::size_t LastKept = Order[0];
  Keep[LastKept] = true;
  for (std::size_t I = 1; I < Order.size(); ++I) {
    std::size_t Cur = Order[I];
    if (!IsStrictPrefix(Table.labelsOf(Paths[LastKept]),
                        Table.labelsOf(Paths[Cur]))) {
      Keep[Cur] = true;
      LastKept = Cur;
    }
  }

  // Survivors in original input order — the survivor *set* is order
  // independent, so the result does not depend on racy id values.
  std::vector<PathId> Out;
  for (std::size_t I = 0; I < Paths.size(); ++I)
    if (Keep[I])
      Out.push_back(Paths[I]);
  return Out;
}

std::vector<PathId> diffcode::usage::removedPaths(const UsageDag &G1,
                                                  const UsageDag &G2,
                                                  Interner &Table) {
  std::set<PathId> InG2;
  for (const FeaturePath &Path : G2.paths())
    InG2.insert(Table.path(Path));

  std::vector<PathId> OnlyInG1;
  for (const FeaturePath &Path : G1.paths()) {
    PathId Id = Table.path(Path);
    if (!InG2.count(Id))
      OnlyInG1.push_back(Id);
  }
  return shortestPaths(std::move(OnlyInG1), Table);
}

UsageChange diffcode::usage::diffDags(const UsageDag &G1, const UsageDag &G2,
                                      Interner &Table) {
  UsageChange Change;
  Change.TypeName = G1.typeName();
  Change.Table = &Table;
  Change.Removed = removedPaths(G1, G2, Table);
  Change.Added = removedPaths(G2, G1, Table);
  return Change;
}

std::vector<std::pair<std::size_t, std::size_t>>
diffcode::usage::pairDags(const std::vector<UsageDag> &Old,
                          const std::vector<UsageDag> &New) {
  std::vector<std::pair<std::size_t, std::size_t>> Pairs;
  if (Old.empty() && New.empty())
    return Pairs;

  CostMatrix Costs(Old.size(), New.size());
  for (std::size_t R = 0; R < Old.size(); ++R)
    for (std::size_t C = 0; C < New.size(); ++C)
      Costs.at(R, C) = dagDistance(Old[R], New[C]);

  Assignment Result = solveAssignment(Costs);
  std::vector<bool> NewMatched(New.size(), false);
  for (std::size_t R = 0; R < Old.size(); ++R) {
    std::size_t C = Result.RowToCol[R];
    Pairs.emplace_back(R, C);
    if (C != Assignment::Unmatched)
      NewMatched[C] = true;
  }
  for (std::size_t C = 0; C < New.size(); ++C)
    if (!NewMatched[C])
      Pairs.emplace_back(Assignment::Unmatched, C);
  return Pairs;
}

/// True when \p Old and \p New hold the same multiset of DAGs. Each
/// comparison checks the identity hashes and confirms a match on the
/// canonical strings. The sides usually list their DAGs in the same
/// order, and then this is one pass with no allocation.
static bool sameDagMultiset(const std::vector<UsageDag> &Old,
                            const std::vector<UsageDag> &New) {
  return Old.size() == New.size() &&
         std::is_permutation(Old.begin(), Old.end(), New.begin(),
                             [](const UsageDag &A, const UsageDag &B) {
                               return A.sameIdentity(B);
                             });
}

std::vector<UsageChange>
diffcode::usage::deriveUsageChanges(const std::vector<UsageDag> &Old,
                                    const std::vector<UsageDag> &New,
                                    const std::string &TypeName,
                                    Interner &Table) {
  std::vector<UsageChange> Changes;
  // A change that left the usages alone: pairing each DAG with its
  // identical twin costs 0, so it is a min-cost matching and every diff
  // is empty. Emit those changes without the solver, the path walks or
  // the interner. While the Hungarian site is armed, take the full path,
  // so a campaign evaluates the same fault points as without this one.
  if (!support::faultSiteArmed(support::FaultSite::Hungarian) &&
      sameDagMultiset(Old, New)) {
    Changes.resize(Old.size());
    for (std::size_t I = 0; I < Old.size(); ++I) {
      Changes[I].TypeName = Old[I].typeName();
      Changes[I].Table = &Table;
    }
    return Changes;
  }

  UsageDag Padding = UsageDag::emptyFor(TypeName);
  for (auto [OldIdx, NewIdx] : pairDags(Old, New)) {
    const UsageDag &G1 =
        OldIdx == Assignment::Unmatched ? Padding : Old[OldIdx];
    const UsageDag &G2 =
        NewIdx == Assignment::Unmatched ? Padding : New[NewIdx];
    Changes.push_back(diffDags(G1, G2, Table));
  }
  return Changes;
}
