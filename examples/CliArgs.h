//===- examples/CliArgs.h - Numeric flag parsing for the CLIs --------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// The one parser behind every numeric flag of diffcode_cli and diffcoded,
// so a typo such as `--workers abc` is a usage error instead of silently
// becoming 0.
//
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_EXAMPLES_CLIARGS_H
#define DIFFCODE_EXAMPLES_CLIARGS_H

#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace diffcode {

/// Parses \p Text into \p Out when all of it is a non-negative number that
/// fits T: decimal digits for unsigned integers, a finite decimal for
/// floating point. Signs, whitespace, trailing bytes, "inf" and "nan" are
/// rejected; \p Out is untouched on failure.
template <typename T> bool parseNonNegative(const char *Text, T &Out) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  const char *End = Text + std::strlen(Text);
  if (Text == End || *Text == '-')
    return false;
  T Value{};
  auto [Ptr, Ec] = std::from_chars(Text, End, Value);
  if (Ec != std::errc() || Ptr != End)
    return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(Value))
      return false;
  Out = Value;
  return true;
}

} // namespace diffcode

#endif // DIFFCODE_EXAMPLES_CLIARGS_H
