//===- cluster/DistanceCache.h - Memoised usageDist over a corpus ----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot loop of Section 4.3's clustering is the pairwise usageDist
/// matrix: every evaluation runs a Hungarian assignment whose cost
/// entries each run a Levenshtein over label units. Usage changes arrive
/// already interned (support::Interner ids), so this cache no longer
/// interns anything itself: it compacts the corpus's global ids to dense
/// local indices and memoises the expensive sub-results on top:
///
///   * the corpus's distinct global label ids -> dense local ids, with
///     unit vectors borrowed from the interner's arena (precomputed at
///     intern time, never copied);
///   * the corpus's distinct global path ids -> dense local ids over
///     local label ids, keeping common-prefix tests integer compares and
///     the tables small enough for the dense bound;
///   * labelSimilarity over local id pairs -> a dense table (bounded;
///     larger vocabularies fall back to on-the-fly Levenshtein over the
///     precomputed units);
///   * pathDist over local id pairs -> a dense table under the same
///     bound.
///
/// Local ids are derived by sorting global ids, whose values are racy
/// across runs — but no result depends on id *values*: table fills are
/// symmetric value-by-value, and cost matrices follow each change's own
/// path order, so the metric is permutation-invariant (see the interner's
/// determinism contract). Every memoised value is produced by the same
/// arithmetic as the uncached functions in cluster/Distance.h, so results
/// are bit-identical — tests assert exact equality. All queries after
/// construction are read-only and therefore thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CLUSTER_DISTANCECACHE_H
#define DIFFCODE_CLUSTER_DISTANCECACHE_H

#include "support/Interner.h"
#include "usage/UsageChange.h"

#include <cstdint>
#include <string>
#include <vector>

namespace diffcode {
namespace cluster {

/// Memoised usageDist evaluator over a fixed corpus of usage changes.
/// All changes must resolve through one shared interner (the pipeline
/// invariant), which must outlive the cache — unit vectors are borrowed
/// from its arena.
class UsageDistCache {
public:
  /// Compacts the corpus's ids and warms the similarity tables.
  explicit UsageDistCache(const std::vector<usage::UsageChange> &Changes);

  /// Number of usage changes indexed.
  std::size_t size() const { return Interned.size(); }

  /// Bit-identical equivalent of usageDist(Changes[I], Changes[J]).
  double operator()(std::size_t I, std::size_t J) const;

  std::size_t distinctLabels() const { return Units.size(); }
  std::size_t distinctPaths() const { return PathLabels.size(); }

private:
  struct InternedChange {
    std::vector<std::uint32_t> Removed; ///< Local path ids of F-.
    std::vector<std::uint32_t> Added;   ///< Local path ids of F+.
  };

  double labelSim(std::uint32_t A, std::uint32_t B) const;
  double pathDistById(std::uint32_t A, std::uint32_t B) const;
  double pathDistCached(std::uint32_t A, std::uint32_t B) const;
  double pathsDistById(const std::vector<std::uint32_t> &F1,
                       const std::vector<std::uint32_t> &F2) const;

  std::vector<InternedChange> Interned;
  /// Levenshtein units per local label id, borrowed from the shared
  /// interner's arena (stable for its lifetime).
  std::vector<const std::vector<std::string> *> Units;
  /// Local label-id sequence per local path id.
  std::vector<std::vector<std::uint32_t>> PathLabels;
  /// Dense distinctLabels^2 similarity table; empty when the vocabulary
  /// exceeds the memory bound.
  std::vector<double> LabelSimTable;
  /// Dense distinctPaths^2 pathDist table; empty when over the bound.
  std::vector<double> PathDistTable;
};

} // namespace cluster
} // namespace diffcode

#endif // DIFFCODE_CLUSTER_DISTANCECACHE_H
