//===- tests/ReferenceLexer.h - Retained seed lexer (oracle) ---------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-rewrite per-character lexer, retained verbatim as the
/// differential-testing oracle for the table-driven scanner in
/// javaast/Lexer.h; it is built only into the tests (library
/// diffcode_reference_lexer), never into the shipping libraries. It keeps
/// the original implementation
/// strategy — per-character advance() with inline line/column counters,
/// <cctype> classification, a std::string built for every token, and a
/// hash-map keyword table — and only adapts the output type: spellings
/// are interned into the TokenStream arena so both lexers produce the
/// same Token/TokenStream shape and can be compared byte for byte.
///
/// Do not optimize this file; its value is being the unchanged seed
/// semantics. tests/test_frontend_equivalence.cpp and
/// tests/test_lexer_fuzz.cpp assert the production lexer matches it on
/// every input.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_TESTS_REFERENCELEXER_H
#define DIFFCODE_TESTS_REFERENCELEXER_H

#include "javaast/Diagnostics.h"
#include "javaast/Lexer.h"
#include "javaast/Token.h"

#include <string>
#include <string_view>

namespace diffcode {
namespace java {

/// Single-pass per-character lexer over an in-memory buffer (seed
/// implementation).
class ReferenceLexer {
public:
  ReferenceLexer(std::string_view Buffer, DiagnosticsEngine &Diags);

  /// Lexes and returns the next token; returns EndOfFile forever once the
  /// buffer is exhausted.
  Token next();

  /// Lexes the entire buffer. The trailing EndOfFile token is included.
  TokenStream lexAll();

private:
  char peek(std::size_t Ahead = 0) const;
  char advance();
  bool match(char Expected);
  bool atEnd() const { return Pos >= Buffer.size(); }
  SourceLocation here() const;
  void skipTrivia();

  Token makeToken(TokenKind Kind, SourceLocation Loc, std::string Text);
  Token lexIdentifierOrKeyword(SourceLocation Loc);
  Token lexNumber(SourceLocation Loc);
  Token lexString(SourceLocation Loc);
  Token lexChar(SourceLocation Loc);
  /// Decodes one escape sequence after a backslash; returns the decoded
  /// character (best effort on invalid escapes).
  char lexEscape();

  std::string_view Buffer;
  DiagnosticsEngine &Diags;
  std::size_t Pos = 0;
  std::uint32_t Line = 1;
  std::uint32_t Col = 1;
  TokenStream Stream; ///< Owns the interned spellings.
};

/// The seed keyword table (hash map), kept for the oracle's cost profile
/// and as a second implementation for lookupKeyword equivalence tests.
TokenKind referenceLookupKeyword(std::string_view Spelling);

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_TESTS_REFERENCELEXER_H
