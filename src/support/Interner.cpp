//===- support/Interner.cpp ------------------------------------------------===//

#include "support/Interner.h"

#include <mutex>

using namespace diffcode;
using namespace diffcode::support;
using diffcode::usage::FeaturePath;
using diffcode::usage::NodeLabel;

LabelId Interner::label(const NodeLabel &Label) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = LabelIds.find(Label);
    if (It != LabelIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Inserted] =
      LabelIds.emplace(Label, static_cast<LabelId>(Labels.size()));
  if (Inserted)
    Labels.push_back(Label);
  return It->second;
}

PathId Interner::path(const FeaturePath &Path) {
  std::vector<LabelId> Ids;
  Ids.reserve(Path.size());
  for (const NodeLabel &Label : Path)
    Ids.push_back(label(Label));
  return path(std::move(Ids));
}

PathId Interner::path(std::vector<LabelId> Ids) {
  {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    auto It = PathIds.find(Ids);
    if (It != PathIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  auto [It, Inserted] =
      PathIds.emplace(std::move(Ids), static_cast<PathId>(Paths.size()));
  if (Inserted)
    Paths.push_back(It->first);
  return It->second;
}

const NodeLabel &Interner::labelAt(LabelId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Labels[Id];
}

const std::vector<LabelId> &Interner::labelsOf(PathId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Paths[Id];
}

FeaturePath Interner::materialize(PathId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  FeaturePath Out;
  const std::vector<LabelId> &Ids = Paths[Id];
  Out.reserve(Ids.size());
  for (LabelId L : Ids)
    Out.push_back(Labels[L]);
  return Out;
}

std::string Interner::pathString(PathId Id) const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  std::string Out;
  const std::vector<LabelId> &Ids = Paths[Id];
  for (std::size_t I = 0; I < Ids.size(); ++I) {
    if (I != 0)
      Out += ' ';
    Out += Labels[Ids[I]].str();
  }
  return Out;
}

std::size_t Interner::labelCount() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Labels.size();
}

std::size_t Interner::pathCount() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Paths.size();
}

std::size_t Interner::memoryBytes() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  std::size_t Bytes = 0;
  for (const NodeLabel &L : Labels)
    Bytes += sizeof(NodeLabel) + L.Text.capacity();
  for (const std::vector<LabelId> &P : Paths)
    Bytes += sizeof(P) + P.capacity() * sizeof(LabelId);
  // Lookup maps: one node per entry (key storage counted above for
  // labels; path keys are shared with the arena copies, count them once
  // more as the map owns its own key copy).
  for (const auto &[Key, Id] : PathIds)
    Bytes += 3 * sizeof(void *) + sizeof(PathId) + sizeof(Key) +
             Key.capacity() * sizeof(LabelId);
  for (const auto &[Key, Id] : LabelIds)
    Bytes += 3 * sizeof(void *) + sizeof(LabelId) + sizeof(NodeLabel) +
             Key.Text.capacity();
  return Bytes;
}
