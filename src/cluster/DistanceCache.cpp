//===- cluster/DistanceCache.cpp -------------------------------------------===//

#include "cluster/DistanceCache.h"

#include "cluster/Distance.h"
#include "support/Hungarian.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace diffcode;
using namespace diffcode::cluster;
using namespace diffcode::usage;
using support::LabelId;
using support::PathId;

namespace {

/// Dense-table bound: 2048^2 doubles = 32 MiB per table. Real corpora
/// stay far below (a few hundred distinct labels/paths); pathological
/// ones degrade to on-the-fly computation instead of exhausting memory.
constexpr std::size_t DenseTableCap = 2048;

} // namespace

UsageDistCache::UsageDistCache(const std::vector<UsageChange> &Changes) {
  const support::Interner *Table = nullptr;
  for (const UsageChange &Change : Changes)
    if (Change.Table) {
      Table = Change.Table;
      break;
    }

  // Compact the global ids this corpus actually uses to dense local
  // indices so the per-class tables stay within the dense bound even
  // when the corpus-wide interner has grown large. Sorting global ids
  // only fixes *which* local index a label/path gets — no computed value
  // depends on that choice (see file comment), so racy global id
  // assignment cannot leak into results.
  std::vector<PathId> GlobalPaths;
  for (const UsageChange &Change : Changes) {
    GlobalPaths.insert(GlobalPaths.end(), Change.Removed.begin(),
                       Change.Removed.end());
    GlobalPaths.insert(GlobalPaths.end(), Change.Added.begin(),
                       Change.Added.end());
  }
  std::sort(GlobalPaths.begin(), GlobalPaths.end());
  GlobalPaths.erase(std::unique(GlobalPaths.begin(), GlobalPaths.end()),
                    GlobalPaths.end());

  std::vector<LabelId> GlobalLabels;
  for (PathId Id : GlobalPaths) {
    const std::vector<LabelId> &Labels = Table->labelsOf(Id);
    GlobalLabels.insert(GlobalLabels.end(), Labels.begin(), Labels.end());
  }
  std::sort(GlobalLabels.begin(), GlobalLabels.end());
  GlobalLabels.erase(std::unique(GlobalLabels.begin(), GlobalLabels.end()),
                     GlobalLabels.end());

  auto localLabel = [&](LabelId Id) {
    return static_cast<std::uint32_t>(
        std::lower_bound(GlobalLabels.begin(), GlobalLabels.end(), Id) -
        GlobalLabels.begin());
  };
  auto localPath = [&](PathId Id) {
    return static_cast<std::uint32_t>(
        std::lower_bound(GlobalPaths.begin(), GlobalPaths.end(), Id) -
        GlobalPaths.begin());
  };

  Units.reserve(GlobalLabels.size());
  for (LabelId Id : GlobalLabels)
    Units.push_back(&Table->unitsOf(Id)); // arena reference, stable

  PathLabels.reserve(GlobalPaths.size());
  for (PathId Id : GlobalPaths) {
    const std::vector<LabelId> &Labels = Table->labelsOf(Id);
    std::vector<std::uint32_t> Local;
    Local.reserve(Labels.size());
    for (LabelId L : Labels)
      Local.push_back(localLabel(L));
    PathLabels.push_back(std::move(Local));
  }

  Interned.reserve(Changes.size());
  for (const UsageChange &Change : Changes) {
    InternedChange IC;
    IC.Removed.reserve(Change.Removed.size());
    for (PathId Id : Change.Removed)
      IC.Removed.push_back(localPath(Id));
    IC.Added.reserve(Change.Added.size());
    for (PathId Id : Change.Added)
      IC.Added.push_back(localPath(Id));
    Interned.push_back(std::move(IC));
  }

  // Warm the dense tables, labels first (pathDist reads label
  // similarities). Each (row, col >= row) entry is written together with
  // its mirror; both functions are symmetric, so mirroring preserves
  // bit-identity.
  std::size_t L = Units.size();
  if (L > 0 && L <= DenseTableCap) {
    LabelSimTable.assign(L * L, 0.0);
    for (std::size_t R = 0; R < L; ++R)
      for (std::size_t C = R; C < L; ++C) {
        double Sim = levenshteinRatio(*Units[R], *Units[C]);
        LabelSimTable[R * L + C] = LabelSimTable[C * L + R] = Sim;
      }
  }

  std::size_t P = PathLabels.size();
  if (P > 0 && P <= DenseTableCap) {
    PathDistTable.assign(P * P, 0.0);
    for (std::size_t R = 0; R < P; ++R)
      for (std::size_t C = R + 1; C < P; ++C) {
        double Dist = pathDistById(static_cast<std::uint32_t>(R),
                                   static_cast<std::uint32_t>(C));
        PathDistTable[R * P + C] = PathDistTable[C * P + R] = Dist;
      }
  }
}

double UsageDistCache::labelSim(std::uint32_t A, std::uint32_t B) const {
  if (!LabelSimTable.empty())
    return LabelSimTable[static_cast<std::size_t>(A) * Units.size() + B];
  return levenshteinRatio(*Units[A], *Units[B]);
}

// Mirrors pathDist (cluster/Distance.cpp) over interned ids.
double UsageDistCache::pathDistById(std::uint32_t A, std::uint32_t B) const {
  if (A == B)
    return 0.0;
  const std::vector<std::uint32_t> &PA = PathLabels[A];
  const std::vector<std::uint32_t> &PB = PathLabels[B];
  std::size_t MaxLen = std::max(PA.size(), PB.size());
  std::size_t N = std::min(PA.size(), PB.size());
  std::size_t Prefix = 0;
  while (Prefix < N && PA[Prefix] == PB[Prefix])
    ++Prefix;
  double Credit = static_cast<double>(Prefix);
  if (Prefix < PA.size() && Prefix < PB.size())
    Credit += labelSim(PA[Prefix], PB[Prefix]);
  return 1.0 - Credit / static_cast<double>(MaxLen);
}

double UsageDistCache::pathDistCached(std::uint32_t A, std::uint32_t B) const {
  if (!PathDistTable.empty())
    return PathDistTable[static_cast<std::size_t>(A) * PathLabels.size() + B];
  return pathDistById(A, B);
}

// Mirrors pathsDist (cluster/Distance.cpp) over interned ids.
double
UsageDistCache::pathsDistById(const std::vector<std::uint32_t> &F1,
                              const std::vector<std::uint32_t> &F2) const {
  if (F1.empty() && F2.empty())
    return 0.0;
  // Bit-exact shortcuts around the assignment solver. Equal id vectors
  // admit the all-zero diagonal matching, and a sum of exact zeros is
  // 0.0; one empty side makes every row cost exactly 1.0, and
  // (1.0 * N) / N is exactly 1.0. Both match what the solver returns.
  if (F1 == F2)
    return 0.0;
  if (F1.empty() || F2.empty())
    return 1.0;
  std::size_t N = std::max(F1.size(), F2.size());
  // Per-thread scratch: the solver runs once per usage-change pair, so
  // reallocation (not arithmetic) would dominate the matrix build.
  thread_local CostMatrix Costs(0, 0);
  thread_local AssignmentWorkspace Scratch;
  Costs.reset(N, N);
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t C = 0; C < N; ++C) {
      if (R < F1.size() && C < F2.size())
        Costs.at(R, C) = pathDistCached(F1[R], F2[C]);
      else
        Costs.at(R, C) = 1.0; // unmatched path pairs with the empty path
    }
  Assignment Result = solveAssignment(Costs, Scratch);
  return Result.TotalCost / static_cast<double>(N);
}

double UsageDistCache::operator()(std::size_t I, std::size_t J) const {
  // pathsDist is only symmetric up to summation order (tied Hungarian
  // matchings can pair differently under transposition), so evaluate in
  // a canonical argument order to make the cache bitwise symmetric.
  if (J < I)
    std::swap(I, J);
  const InternedChange &A = Interned[I];
  const InternedChange &B = Interned[J];
  return (pathsDistById(A.Removed, B.Removed) +
          pathsDistById(A.Added, B.Added)) /
         2.0;
}
