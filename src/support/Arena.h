//===- support/Arena.h - Bump-pointer arena allocator ----------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer slab allocator in the style of LLVM's BumpPtrAllocator.
/// Allocation is a pointer bump in the common case; nothing is freed
/// individually. reset() rewinds to the first slab while *retaining* the
/// slab memory, so a reused arena reaches a steady state with zero malloc
/// traffic — the property the front end relies on when one AstContext is
/// recycled across the old/new versions of every mined change.
///
/// The arena does not run destructors; owners that place non-trivially
/// destructible objects in it (see java::AstContext) must track and run
/// those destructors themselves before reset() or destruction.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_ARENA_H
#define DIFFCODE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstring>
#include <string_view>
#include <vector>

namespace diffcode {
namespace support {

/// Bump-pointer slab allocator. Movable (slab addresses are stable across
/// moves, so views into the arena survive), not copyable.
class Arena {
public:
  Arena() = default;
  Arena(Arena &&) = default;
  Arena &operator=(Arena &&) = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Returns \p Size bytes aligned to \p Align (a power of two).
  void *allocate(std::size_t Size, std::size_t Align) {
    char *P = alignPtr(Cur, Align);
    if (P + Size <= End) {
      Cur = P + Size;
      Requested += Size;
      return P;
    }
    return allocateSlow(Size, Align);
  }

  /// Copies \p Bytes into the arena; returns a view of the stable copy.
  std::string_view copy(std::string_view Bytes) {
    if (Bytes.empty())
      return {static_cast<const char *>(nullptr), 0};
    char *Mem = static_cast<char *>(allocate(Bytes.size(), 1));
    std::memcpy(Mem, Bytes.data(), Bytes.size());
    return {Mem, Bytes.size()};
  }

  /// Rewinds to the beginning, retaining every slab for reuse. Contents
  /// become indeterminate; no destructors are run.
  void reset();

  /// Sum of bytes handed out since construction / the last reset()
  /// (excludes alignment padding and unused slab tails).
  std::size_t bytesRequested() const { return Requested; }

  /// Total slab capacity currently held (retained across reset()).
  std::size_t bytesCapacity() const;

private:
  struct Slab {
    char *Mem;
    std::size_t Size;
  };

  static char *alignPtr(char *P, std::size_t Align) {
    return reinterpret_cast<char *>(
        (reinterpret_cast<std::uintptr_t>(P) + Align - 1) & ~(Align - 1));
  }

  void *allocateSlow(std::size_t Size, std::size_t Align);

  std::vector<Slab> Slabs;
  std::size_t CurSlab = 0; ///< Index of the slab Cur points into.
  char *Cur = nullptr;
  char *End = nullptr;
  std::size_t Requested = 0;
};

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_ARENA_H
