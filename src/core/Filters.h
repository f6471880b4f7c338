//===- core/Filters.h - fsame / fadd / frem / fdup (Section 4.2) -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four usage-change filters, applied in order:
///
///   fsame  F- and F+ both empty          (refactoring / unrelated edit)
///   fadd   F- empty                      (a usage was introduced)
///   frem   F+ empty                      (a usage was deleted)
///   fdup   identical (F-, F+) seen before (duplicate fix)
///
/// Each change is attributed to the first filter that removes it, so the
/// per-stage attrition of Figures 6 and 7 can be reported exactly.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CORE_FILTERS_H
#define DIFFCODE_CORE_FILTERS_H

#include "usage/UsageChange.h"

#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace diffcode {
namespace core {

/// Which filter removed a change (Kept = survived all four).
enum class FilterStage { Kept, FSame, FAdd, FRem, FDup };

/// Display name ("fsame", ...).
const char *filterStageName(FilterStage Stage);

/// Result of running the filter pipeline over one class's usage changes.
struct FilterResult {
  /// Outcome per input change (parallel to the input vector).
  std::vector<FilterStage> Outcome;
  /// The surviving changes, in input order.
  std::vector<usage::UsageChange> Kept;

  // Remaining-change counts after each stage (Figure 6 columns).
  std::size_t Total = 0;
  std::size_t AfterSame = 0;
  std::size_t AfterAdd = 0;
  std::size_t AfterRem = 0;
  std::size_t AfterDup = 0;
};

/// fdup's memory: the (type, F-, F+) of every change a FilterResult kept.
/// Interned ids make feature identity a tuple of id vectors (valid because
/// one corpus shares one interner), so a duplicate is one set probe.
using FilterSeen =
    std::set<std::tuple<std::string, std::vector<support::PathId>,
                        std::vector<support::PathId>>>;

/// Continues \p Result over Changes[Result.Total..]: \p Result covers the
/// prefix Changes[0..Result.Total) and \p Seen holds the features it kept.
/// fsame, fadd and frem judge each change alone and fdup keeps first
/// occurrences, so continuing over the new changes gives exactly what
/// applyFilters over all of \p Changes gives.
void continueFilters(const std::vector<usage::UsageChange> &Changes,
                     FilterResult &Result, FilterSeen &Seen);

/// Runs the pipeline: continueFilters from an empty result. Duplicate
/// detection keeps the first occurrence of each distinct (F-, F+).
FilterResult applyFilters(const std::vector<usage::UsageChange> &Changes);

/// Classifies a single change in isolation (no duplicate stage).
FilterStage classifySolo(const usage::UsageChange &Change);

} // namespace core
} // namespace diffcode

#endif // DIFFCODE_CORE_FILTERS_H
