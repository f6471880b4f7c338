//===- usage/UsageChange.h - Usage changes (F-, F+) ------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic diff of one paired (old, new) usage DAG: the sets of
/// shortest-removed and shortest-added feature paths (Section 3.5), plus
/// provenance so elicited rules can cite concrete commits.
///
/// Feature paths are stored as dense support::PathId values resolved
/// through a shared support::Interner (DESIGN.md "Interned data model"):
/// path equality is an integer compare, a change is two small id
/// vectors, and strings materialise only at display/emission time. The
/// interner must outlive every change that references it; the pipeline
/// guarantees this by owning one corpus interner per DiffCode instance
/// (pinned into the CorpusReport via shared_ptr).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_USAGE_USAGECHANGE_H
#define DIFFCODE_USAGE_USAGECHANGE_H

#include "support/Interner.h"
#include "usage/UsageDag.h"

#include <string>
#include <vector>

namespace diffcode {
namespace usage {

/// A usage change Diff(G1, G2) = (F-, F+).
struct UsageChange {
  std::string TypeName; ///< Target API class of the paired DAGs.
  std::vector<support::PathId> Removed; ///< F-: shortest paths only in old.
  std::vector<support::PathId> Added;   ///< F+: shortest paths only in new.
  std::string Origin; ///< Provenance, e.g. "project-17@commit-4".
  /// The table Removed/Added ids resolve through. Raw pointer by design:
  /// changes are copied heavily inside the clustering engine, and a
  /// shared_ptr would serialize those copies on the refcount. Lifetime
  /// is owned one level up (DiffCode / the test fixture).
  const support::Interner *Table = nullptr;

  bool isEmpty() const { return Removed.empty() && Added.empty(); }

  /// Equality over features only (provenance excluded) — this is the
  /// notion the fdup filter uses. Integer compares when both changes
  /// share one interner; structural comparison across tables (id values
  /// are assignment-order dependent and never comparable across runs).
  bool sameFeatures(const UsageChange &Other) const;

  /// Materialised copies of F- / F+ for consumers that need the label
  /// structure (rule suggestion, display).
  std::vector<FeaturePath> removedPaths() const;
  std::vector<FeaturePath> addedPaths() const;

  /// Display form of one interned path of this change.
  std::string pathString(support::PathId Id) const;

  /// Multi-line display: "- <path>" / "+ <path>".
  std::string str() const;

  /// Builds a change by interning literal feature paths — the
  /// construction entry point for tests, benches and generators.
  static UsageChange intern(support::Interner &Table, std::string TypeName,
                            const std::vector<FeaturePath> &Removed,
                            const std::vector<FeaturePath> &Added,
                            std::string Origin = std::string());
};

/// Shortest(P): keeps only paths with no strict prefix in \p Paths,
/// preserving input order (duplicates survive — a path is not a *strict*
/// prefix of itself). Single linear elimination pass after an
/// id-lexicographic sort; the survivor set is identical under any label
/// order, so results do not depend on id values.
std::vector<support::PathId> shortestPaths(std::vector<support::PathId> Paths,
                                           const support::Interner &Table);

/// Removed(G1, G2) = Shortest(Paths(G1) \ Paths(G2)), interned.
std::vector<support::PathId> removedPaths(const UsageDag &G1,
                                          const UsageDag &G2,
                                          support::Interner &Table);

/// Diff(G1, G2) = (Removed(G1,G2), Removed(G2,G1)).
UsageChange diffDags(const UsageDag &G1, const UsageDag &G2,
                     support::Interner &Table);

/// Pairs old-version DAGs with new-version DAGs by minimum total
/// dagDistance (Section 3.5), padding the shorter side with root-only
/// DAGs. Returns index pairs (OldIdx, NewIdx); SIZE_MAX denotes a padding
/// partner.
std::vector<std::pair<std::size_t, std::size_t>>
pairDags(const std::vector<UsageDag> &Old, const std::vector<UsageDag> &New);

/// End-to-end Section 3.5: pair the two versions' DAGs of one target type
/// and diff every pair. Empty diffs are kept (the fsame filter counts
/// them). When both sides hold the same multiset of DAGs (by canonical
/// identity), every pair is an identical twin: this emits one empty
/// change per DAG, in Old's order, and skips pairing, diffing and
/// interning.
std::vector<UsageChange> deriveUsageChanges(const std::vector<UsageDag> &Old,
                                            const std::vector<UsageDag> &New,
                                            const std::string &TypeName,
                                            support::Interner &Table);

} // namespace usage
} // namespace diffcode

#endif // DIFFCODE_USAGE_USAGECHANGE_H
