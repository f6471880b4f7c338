//===- support/StringUtils.h - Small string helpers ----------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the project: split/join/trim, a generic
/// Levenshtein edit distance, and the 64-bit FNV-1a string hash. The
/// clustering metric (Section 4.3 of the paper) needs Levenshtein both over
/// characters (string labels) and over opaque single-unit tokens (method
/// names, integers, abstract bytes); the generic template covers both.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_STRINGUTILS_H
#define DIFFCODE_SUPPORT_STRINGUTILS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {

/// Splits \p Text on \p Sep; empty pieces are kept.
std::vector<std::string> split(std::string_view Text, char Sep);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 std::string_view Sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view Text);

/// Generic Levenshtein distance over random-access sequences. Each element
/// counts as one unit for insert/delete/substitute.
template <typename Seq> std::size_t levenshtein(const Seq &A, const Seq &B) {
  const std::size_t N = A.size(), M = B.size();
  if (N == 0)
    return M;
  if (M == 0)
    return N;
  std::vector<std::size_t> Prev(M + 1), Cur(M + 1);
  for (std::size_t J = 0; J <= M; ++J)
    Prev[J] = J;
  for (std::size_t I = 1; I <= N; ++I) {
    Cur[0] = I;
    for (std::size_t J = 1; J <= M; ++J) {
      std::size_t Sub = Prev[J - 1] + (A[I - 1] == B[J - 1] ? 0 : 1);
      Cur[J] = std::min({Prev[J] + 1, Cur[J - 1] + 1, Sub});
    }
    std::swap(Prev, Cur);
  }
  return Prev[M];
}

/// Levenshtein similarity ratio `1 - lev/max(|A|,|B|)` in [0,1]; two empty
/// sequences are identical (ratio 1).
template <typename Seq> double levenshteinRatio(const Seq &A, const Seq &B) {
  std::size_t MaxLen = std::max(A.size(), B.size());
  if (MaxLen == 0)
    return 1.0;
  return 1.0 - static_cast<double>(levenshtein(A, B)) /
                   static_cast<double>(MaxLen);
}

namespace support {

/// 64-bit FNV-1a over \p Bytes, starting from \p Basis (the standard
/// offset basis by default). The one implementation behind usage-DAG
/// identity, the scanner's unit-cache key and the clustering fault scope.
inline std::uint64_t fnv1a64(std::string_view Bytes,
                             std::uint64_t Basis = 0xcbf29ce484222325ull) {
  std::uint64_t H = Basis;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_STRINGUTILS_H
