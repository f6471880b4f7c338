//===- analysis/AbstractObject.h - Allocation-site heap abstraction --------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-allocation-site heap abstraction (Section 3.3): each constructor or
/// factory call site yields one abstract object identified by the
/// statement's label. The ObjectTable interns sites so that re-executing a
/// site (loops, forked paths, multiple entry methods) reuses the same
/// abstract object.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_ANALYSIS_ABSTRACTOBJECT_H
#define DIFFCODE_ANALYSIS_ABSTRACTOBJECT_H

#include "javaast/SourceLocation.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace analysis {

/// One abstract object (allocation site).
struct AbstractObject {
  unsigned Id = 0;
  std::string TypeName;         ///< Dynamic type at the site ("Cipher").
  java::SourceLocation AllocSite;

  /// Site label in the paper's "l13" style (line of the allocation).
  std::string siteLabel() const {
    return "l" + std::to_string(AllocSite.Line);
  }
};

/// Interning table of allocation sites for one program version.
class ObjectTable {
public:
  /// Returns the object for (site, type), creating it on first use.
  unsigned getOrCreate(java::SourceLocation Site, std::string_view Type) {
    std::uint64_t Key =
        (static_cast<std::uint64_t>(Site.Line) << 32) | Site.Column;
    auto [First, Last] = SiteIndex.equal_range(Key);
    for (auto It = First; It != Last; ++It)
      if (Objects[It->second].TypeName == Type)
        return It->second;
    unsigned Id = static_cast<unsigned>(Objects.size());
    Objects.push_back({Id, std::string(Type), Site});
    SiteIndex.emplace(Key, Id);
    return Id;
  }

  const AbstractObject &get(unsigned Id) const { return Objects[Id]; }
  std::size_t size() const { return Objects.size(); }
  const std::vector<AbstractObject> &all() const { return Objects; }

private:
  std::vector<AbstractObject> Objects;
  /// Site (line << 32 | column) -> the ids of the objects allocated there.
  std::multimap<std::uint64_t, unsigned> SiteIndex;
};

} // namespace analysis
} // namespace diffcode

#endif // DIFFCODE_ANALYSIS_ABSTRACTOBJECT_H
