//===- javaast/Lexer.h - Table-driven Java subset lexer --------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven lexer for the Java subset. Comments (line and block) and
/// whitespace are skipped; malformed input produces diagnostics and an
/// Unknown token so the parser can attempt recovery.
///
/// The scanner dispatches on a 256-entry byte-classification table, runs a
/// SWAR fast path over ASCII identifier bytes (eight at a time), and scans
/// escape-free string literals in a single pass that views straight into
/// the source buffer. Line/column information comes from a line-offset
/// table computed once per buffer, not from per-character counters.
/// tests/ReferenceLexer.h retains the original per-character scanner as
/// the differential-testing oracle; tests/test_frontend_equivalence.cpp
/// proves the two produce byte-identical token streams and diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_JAVAAST_LEXER_H
#define DIFFCODE_JAVAAST_LEXER_H

#include "javaast/Diagnostics.h"
#include "javaast/Token.h"
#include "support/Arena.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace diffcode {
namespace java {

/// The result of lexing one buffer: the tokens plus the arena that owns
/// the decoded spellings they view into. Tokens stay valid as long as the
/// stream (moves included — arena slab addresses are stable) and the
/// source buffer are both alive.
class TokenStream {
public:
  TokenStream() = default;
  TokenStream(TokenStream &&) = default;
  TokenStream &operator=(TokenStream &&) = default;
  TokenStream(const TokenStream &) = delete;
  TokenStream &operator=(const TokenStream &) = delete;

  std::vector<Token> Tokens;
  support::Arena Storage; ///< Decoded literal bytes tokens view into.

  std::size_t size() const { return Tokens.size(); }
  bool empty() const { return Tokens.empty(); }
  const Token &operator[](std::size_t I) const { return Tokens[I]; }
  const Token &back() const { return Tokens.back(); }
  std::vector<Token>::const_iterator begin() const { return Tokens.begin(); }
  std::vector<Token>::const_iterator end() const { return Tokens.end(); }
};

/// Byte-class bits for the scanner dispatch table.
namespace charclass {
enum : std::uint8_t {
  IdentStart = 1 << 0,  ///< [A-Za-z_$]
  IdentCont = 1 << 1,   ///< [A-Za-z0-9_$]
  Digit = 1 << 2,       ///< [0-9]
  HexDigit = 1 << 3,    ///< [0-9A-Fa-f]
  Whitespace = 1 << 4,  ///< space, \t, \r, \n
  StringStop = 1 << 5,  ///< '"', '\\', '\n' — ends the fast string scan
  NumExtend = 1 << 6,   ///< byte after a digit run that keeps the literal
                        ///< going: [_.xXbBLlfFdD] (prefixes, separators,
                        ///< fractions, suffixes)
};
} // namespace charclass

/// Single-pass table-driven lexer over an in-memory buffer.
class Lexer {
public:
  Lexer(std::string_view Buffer, DiagnosticsEngine &Diags);

  /// Lexes the entire buffer. The trailing EndOfFile token is included.
  TokenStream lexAll();

private:
  bool atEnd() const { return Pos >= Buffer.size(); }
  char peek(std::size_t Ahead = 0) const {
    return Pos + Ahead < Buffer.size() ? Buffer[Pos + Ahead] : '\0';
  }
  bool match(char Expected) {
    if (Pos < Buffer.size() && Buffer[Pos] == Expected) {
      ++Pos;
      return true;
    }
    return false;
  }

  /// Location of offset \p Offset, derived from the line-start table. The
  /// internal line cursor only moves forward: callers ask for locations in
  /// nondecreasing offset order (token starts).
  SourceLocation locAt(std::size_t Offset);

  /// Skips the comment starting at Pos (Buffer[Pos] == '/', Buffer[Pos+1]
  /// is '/' or '*'), diagnosing an unterminated block comment. Out of
  /// line so the scan loops stay spill-free.
  void skipComment();
  Token lexCompound(SourceLocation Loc);
  Token lexNumber(SourceLocation Loc);
  Token lexString(SourceLocation Loc);
  Token lexChar(SourceLocation Loc);
  char lexEscape();
  /// Copies \p Decoded into the stream arena and returns the stable view.
  std::string_view internDecoded(std::string_view Decoded);

  Token makeToken(TokenKind Kind, SourceLocation Loc, std::string_view Text) {
    Token T;
    T.Kind = Kind;
    T.Loc = Loc;
    T.Text = Text;
    return T;
  }

  std::string_view Buffer;
  DiagnosticsEngine &Diags;
  std::size_t Pos = 0;

  /// Byte offset of the start of each line, computed once in the
  /// constructor; LineCursor indexes the line containing the last
  /// location handed out (monotonic, so lookup is amortized O(1)).
  std::vector<std::uint32_t> LineStarts;
  std::size_t LineCursor = 0;
  /// Cached bounds of the line LineCursor points at, so the locAt hot
  /// path (token on the same line as the previous one) is two register
  /// compares and a subtract, with no vector loads.
  std::uint32_t CurLineStart = 0;
  std::uint32_t NextLineStart = UINT32_MAX;

  TokenStream Stream; ///< Owns decoded spellings until lexAll() returns.
};

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_JAVAAST_LEXER_H
