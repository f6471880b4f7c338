//===- support/Interner.h - Corpus-wide label & path interning -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interned corpus data model (DESIGN.md "Interned data model"). At
/// paper scale the pipeline's working set is dominated by duplicated
/// strings: every FeaturePath owns copies of method names, type names,
/// and string constants, even though the vocabulary across a corpus is
/// tiny. This interner stores each distinct NodeLabel and each distinct
/// label sequence exactly once and hands out dense 32-bit ids, so
///
///   * label and path equality are single integer compares,
///   * strict-prefix tests are integer-sequence compares,
///   * a usage change is two small id vectors instead of a tree of
///     heap-allocated strings.
///
/// Interning is *structural*: id equality coincides exactly with
/// NodeLabel::operator== (which includes ValueIsString), the property
/// shortest-path elimination and the filters rely on.
///
/// Thread-safety contract: the interner is append-only behind a
/// std::shared_mutex — intern calls take the exclusive lock, lookups
/// take the shared lock, and storage lives in std::deque arenas whose
/// chunked allocation never moves an element, so references returned by
/// labelAt()/labelsOf() stay valid for the interner's lifetime even
/// while other threads keep interning.
///
/// Determinism contract: id *values* depend on intern order, which is
/// racy when pipeline workers intern concurrently. No output may
/// therefore depend on id values — only on id equality — and every
/// consumer (shortest-path elimination, filters) is written to be
/// id-value independent. That is why reports stay byte-identical across
/// thread counts and vs the string-based engine.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_INTERNER_H
#define DIFFCODE_SUPPORT_INTERNER_H

#include "usage/UsageDag.h"

#include <cstdint>
#include <deque>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

namespace diffcode {
namespace support {

/// Dense id of one distinct NodeLabel.
using LabelId = std::uint32_t;
/// Dense id of one distinct FeaturePath (a label-id sequence).
using PathId = std::uint32_t;

/// Thread-safe append-only string/label/path interner.
class Interner {
public:
  Interner() = default;
  Interner(const Interner &) = delete;
  Interner &operator=(const Interner &) = delete;

  /// Interns \p Label (idempotent); returns its dense id.
  LabelId label(const usage::NodeLabel &Label);

  /// Interns \p Path; returns its dense id. Equal paths (element-wise
  /// NodeLabel::operator==) always receive equal ids.
  PathId path(const usage::FeaturePath &Path);

  /// Interns a pre-converted label-id sequence (ids must come from this
  /// interner).
  PathId path(std::vector<LabelId> Labels);

  /// The label behind \p Id. Reference stays valid forever (arena
  /// storage never moves).
  const usage::NodeLabel &labelAt(LabelId Id) const;

  /// The label-id sequence behind \p Id; same lifetime guarantee.
  const std::vector<LabelId> &labelsOf(PathId Id) const;

  /// Rebuilds the owning FeaturePath (display/compat use only).
  usage::FeaturePath materialize(PathId Id) const;

  /// Display form, byte-identical to pathToString(materialize(Id)).
  std::string pathString(PathId Id) const;

  std::size_t labelCount() const;
  std::size_t pathCount() const;

  /// Approximate resident bytes of the table (labels, paths, lookup
  /// maps) for the memory benchmark.
  std::size_t memoryBytes() const;

private:
  mutable std::shared_mutex Mutex;
  // Arena storage: deque chunks never move elements, so post-intern
  // references are stable without per-element allocations.
  std::deque<usage::NodeLabel> Labels;
  std::deque<std::vector<LabelId>> Paths;
  std::map<usage::NodeLabel, LabelId> LabelIds;
  std::map<std::vector<LabelId>, PathId> PathIds;
};

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_INTERNER_H
