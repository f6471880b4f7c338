//===- support/Casting.h - Kind-based isa/cast/dyn_cast ------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style opt-in RTTI. A class hierarchy participates by exposing a
/// `Kind getKind() const` discriminator and, on each leaf/derived class, a
/// `static bool classof(const Base *)` predicate. This avoids C++ RTTI per
/// the project coding standard.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_CASTING_H
#define DIFFCODE_SUPPORT_CASTING_H

#include <cassert>

namespace diffcode {

/// Returns true if \p Val is an instance of \p To (per To::classof).
template <typename To, typename From> bool isa(const From *Val) {
  assert(Val && "isa<> used on a null pointer");
  return To::classof(Val);
}

/// Checked downcast: asserts that \p Val really is a \p To.
template <typename To, typename From> To *cast(From *Val) {
  assert(Val && "cast<> used on a null pointer");
  assert(To::classof(Val) && "cast<> argument of incompatible type");
  return static_cast<To *>(Val);
}

/// Checked downcast (const overload).
template <typename To, typename From> const To *cast(const From *Val) {
  assert(Val && "cast<> used on a null pointer");
  assert(To::classof(Val) && "cast<> argument of incompatible type");
  return static_cast<const To *>(Val);
}

/// Checking downcast: returns null when \p Val is not a \p To.
template <typename To, typename From> To *dyn_cast(From *Val) {
  assert(Val && "dyn_cast<> used on a null pointer");
  return To::classof(Val) ? static_cast<To *>(Val) : nullptr;
}

/// Checking downcast (const overload).
template <typename To, typename From> const To *dyn_cast(const From *Val) {
  assert(Val && "dyn_cast<> used on a null pointer");
  return To::classof(Val) ? static_cast<const To *>(Val) : nullptr;
}

} // namespace diffcode

#endif // DIFFCODE_SUPPORT_CASTING_H
