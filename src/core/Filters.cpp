//===- core/Filters.cpp ----------------------------------------------------===//

#include "core/Filters.h"

using namespace diffcode;
using namespace diffcode::core;
using namespace diffcode::usage;

const char *diffcode::core::filterStageName(FilterStage Stage) {
  switch (Stage) {
  case FilterStage::Kept:
    return "kept";
  case FilterStage::FSame:
    return "fsame";
  case FilterStage::FAdd:
    return "fadd";
  case FilterStage::FRem:
    return "frem";
  case FilterStage::FDup:
    return "fdup";
  }
  return "kept";
}

FilterStage diffcode::core::classifySolo(const UsageChange &Change) {
  if (Change.Removed.empty() && Change.Added.empty())
    return FilterStage::FSame;
  if (Change.Removed.empty())
    return FilterStage::FAdd;
  if (Change.Added.empty())
    return FilterStage::FRem;
  return FilterStage::Kept;
}

void diffcode::core::continueFilters(const std::vector<UsageChange> &Changes,
                                     FilterResult &Result, FilterSeen &Seen) {
  for (std::size_t I = Result.Total; I < Changes.size(); ++I) {
    const UsageChange &Change = Changes[I];
    FilterStage Stage = classifySolo(Change);
    if (Stage == FilterStage::Kept &&
        !Seen.emplace(Change.TypeName, Change.Removed, Change.Added).second)
      Stage = FilterStage::FDup;
    if (Stage == FilterStage::Kept)
      Result.Kept.push_back(Change);
    Result.Outcome.push_back(Stage);
    // A change counts towards every stage it got past.
    switch (Stage) {
    case FilterStage::Kept:
      ++Result.AfterDup;
      [[fallthrough]];
    case FilterStage::FDup:
      ++Result.AfterRem;
      [[fallthrough]];
    case FilterStage::FRem:
      ++Result.AfterAdd;
      [[fallthrough]];
    case FilterStage::FAdd:
      ++Result.AfterSame;
      [[fallthrough]];
    case FilterStage::FSame:
      break;
    }
  }
  Result.Total = Changes.size();
}

FilterResult
diffcode::core::applyFilters(const std::vector<UsageChange> &Changes) {
  FilterResult Result;
  FilterSeen Seen;
  continueFilters(Changes, Result, Seen);
  return Result;
}
