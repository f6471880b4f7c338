//===- javaast/Token.h - Java token definitions ----------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the Java subset the DiffCode frontend understands. The
/// subset covers the constructs that appear around Java Crypto API usages
/// in real commits (Figure 2 of the paper is representative).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_JAVAAST_TOKEN_H
#define DIFFCODE_JAVAAST_TOKEN_H

#include "javaast/SourceLocation.h"

#include <cstring>
#include <string>
#include <string_view>

namespace diffcode {
namespace java {

/// Lexical classes. Keywords get dedicated kinds so the parser can switch
/// on them directly.
enum class TokenKind {
  EndOfFile,
  Unknown,

  Identifier,
  IntLiteral,
  LongLiteral,
  StringLiteral,
  CharLiteral,

  // Keywords.
  KwAbstract,
  KwAssert,
  KwBoolean,
  KwBreak,
  KwByte,
  KwCase,
  KwCatch,
  KwChar,
  KwClass,
  KwContinue,
  KwDefault,
  KwDo,
  KwDouble,
  KwElse,
  KwExtends,
  KwFalse,
  KwFinal,
  KwFinally,
  KwFloat,
  KwFor,
  KwIf,
  KwImplements,
  KwImport,
  KwInstanceof,
  KwInt,
  KwInterface,
  KwLong,
  KwNew,
  KwNull,
  KwPackage,
  KwPrivate,
  KwProtected,
  KwPublic,
  KwReturn,
  KwShort,
  KwStatic,
  KwSuper,
  KwSwitch,
  KwSynchronized,
  KwThis,
  KwThrow,
  KwThrows,
  KwTrue,
  KwTry,
  KwVoid,
  KwWhile,

  // Punctuation and operators.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Dot,
  Ellipsis,
  At,
  Question,
  Colon,
  ColonColon,
  Arrow,

  Assign,
  PlusAssign,
  MinusAssign,
  StarAssign,
  SlashAssign,

  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  PlusPlus,
  MinusMinus,

  Not,
  Tilde,
  Amp,
  AmpAmp,
  Pipe,
  PipePipe,
  Caret,

  Less,
  Greater,
  LessEqual,
  GreaterEqual,
  EqualEqual,
  NotEqual,
  Shl,
  Shr,
};

/// A lexed token: kind, spelling, and position. Text is a non-owning view:
/// identifiers, numbers, and escape-free literals view directly into the
/// source buffer; literals that needed decoding (escapes resolved, quotes
/// stripped) view into the TokenStream's decode storage. Tokens are only
/// valid while both the source buffer and the owning TokenStream live.
struct Token {
  TokenKind Kind = TokenKind::Unknown;
  SourceLocation Loc;
  std::string_view Text;

  bool is(TokenKind K) const { return Kind == K; }
};

/// Human-readable token-kind name for diagnostics ("identifier", "'{'").
std::string_view tokenKindName(TokenKind Kind);

namespace detail {

/// One keyword candidate; length and first byte already matched by the
/// caller's switch, so only the remaining bytes are compared.
inline TokenKind tryKeyword(std::string_view Spelling, const char *Candidate,
                            TokenKind Kind) {
  return std::memcmp(Spelling.data() + 1, Candidate + 1,
                     Spelling.size() - 1) == 0
             ? Kind
             : TokenKind::Identifier;
}

} // namespace detail

/// Maps identifier spelling to a keyword kind; returns
/// TokenKind::Identifier when \p Spelling is not a keyword.
///
/// Defined inline: the lexer calls this once per identifier, which makes
/// it part of the scan hot path — the branch on (length, first byte)
/// leaves at most two constant-length memcmp candidates, so the common
/// miss (an ordinary identifier) costs a couple of comparisons and no
/// hashing.
inline TokenKind lookupKeyword(std::string_view Spelling) {
  using detail::tryKeyword;
  if (Spelling.size() < 2 || Spelling.size() > 12)
    return TokenKind::Identifier;
  char First = Spelling[0];
  switch (Spelling.size()) {
  case 2:
    if (First == 'd' && Spelling[1] == 'o')
      return TokenKind::KwDo;
    if (First == 'i' && Spelling[1] == 'f')
      return TokenKind::KwIf;
    return TokenKind::Identifier;
  case 3:
    switch (First) {
    case 'f':
      return tryKeyword(Spelling, "for", TokenKind::KwFor);
    case 'i':
      return tryKeyword(Spelling, "int", TokenKind::KwInt);
    case 'n':
      return tryKeyword(Spelling, "new", TokenKind::KwNew);
    case 't':
      return tryKeyword(Spelling, "try", TokenKind::KwTry);
    }
    return TokenKind::Identifier;
  case 4:
    switch (First) {
    case 'b':
      return tryKeyword(Spelling, "byte", TokenKind::KwByte);
    case 'c':
      if (Spelling[1] == 'a')
        return tryKeyword(Spelling, "case", TokenKind::KwCase);
      return tryKeyword(Spelling, "char", TokenKind::KwChar);
    case 'e':
      return tryKeyword(Spelling, "else", TokenKind::KwElse);
    case 'l':
      return tryKeyword(Spelling, "long", TokenKind::KwLong);
    case 'n':
      return tryKeyword(Spelling, "null", TokenKind::KwNull);
    case 't':
      if (Spelling[1] == 'h')
        return tryKeyword(Spelling, "this", TokenKind::KwThis);
      return tryKeyword(Spelling, "true", TokenKind::KwTrue);
    case 'v':
      return tryKeyword(Spelling, "void", TokenKind::KwVoid);
    }
    return TokenKind::Identifier;
  case 5:
    switch (First) {
    case 'b':
      return tryKeyword(Spelling, "break", TokenKind::KwBreak);
    case 'c':
      if (Spelling[1] == 'a')
        return tryKeyword(Spelling, "catch", TokenKind::KwCatch);
      return tryKeyword(Spelling, "class", TokenKind::KwClass);
    case 'f':
      if (Spelling[1] == 'a')
        return tryKeyword(Spelling, "false", TokenKind::KwFalse);
      if (Spelling[1] == 'i')
        return tryKeyword(Spelling, "final", TokenKind::KwFinal);
      return tryKeyword(Spelling, "float", TokenKind::KwFloat);
    case 's':
      if (Spelling[1] == 'h')
        return tryKeyword(Spelling, "short", TokenKind::KwShort);
      return tryKeyword(Spelling, "super", TokenKind::KwSuper);
    case 't':
      return tryKeyword(Spelling, "throw", TokenKind::KwThrow);
    case 'w':
      return tryKeyword(Spelling, "while", TokenKind::KwWhile);
    }
    return TokenKind::Identifier;
  case 6:
    switch (First) {
    case 'a':
      return tryKeyword(Spelling, "assert", TokenKind::KwAssert);
    case 'd':
      return tryKeyword(Spelling, "double", TokenKind::KwDouble);
    case 'i':
      return tryKeyword(Spelling, "import", TokenKind::KwImport);
    case 'p':
      return tryKeyword(Spelling, "public", TokenKind::KwPublic);
    case 'r':
      return tryKeyword(Spelling, "return", TokenKind::KwReturn);
    case 's':
      if (Spelling[1] == 't')
        return tryKeyword(Spelling, "static", TokenKind::KwStatic);
      return tryKeyword(Spelling, "switch", TokenKind::KwSwitch);
    case 't':
      return tryKeyword(Spelling, "throws", TokenKind::KwThrows);
    }
    return TokenKind::Identifier;
  case 7:
    switch (First) {
    case 'b':
      return tryKeyword(Spelling, "boolean", TokenKind::KwBoolean);
    case 'd':
      return tryKeyword(Spelling, "default", TokenKind::KwDefault);
    case 'e':
      return tryKeyword(Spelling, "extends", TokenKind::KwExtends);
    case 'f':
      return tryKeyword(Spelling, "finally", TokenKind::KwFinally);
    case 'p':
      if (Spelling[1] == 'a')
        return tryKeyword(Spelling, "package", TokenKind::KwPackage);
      return tryKeyword(Spelling, "private", TokenKind::KwPrivate);
    }
    return TokenKind::Identifier;
  case 8:
    switch (First) {
    case 'a':
      return tryKeyword(Spelling, "abstract", TokenKind::KwAbstract);
    case 'c':
      return tryKeyword(Spelling, "continue", TokenKind::KwContinue);
    }
    return TokenKind::Identifier;
  case 9:
    if (First == 'i')
      return tryKeyword(Spelling, "interface", TokenKind::KwInterface);
    if (First == 'p')
      return tryKeyword(Spelling, "protected", TokenKind::KwProtected);
    return TokenKind::Identifier;
  case 10:
    if (First != 'i')
      return TokenKind::Identifier;
    if (Spelling[1] == 'n')
      return tryKeyword(Spelling, "instanceof", TokenKind::KwInstanceof);
    return tryKeyword(Spelling, "implements", TokenKind::KwImplements);
  case 12:
    if (First == 's')
      return tryKeyword(Spelling, "synchronized", TokenKind::KwSynchronized);
    return TokenKind::Identifier;
  }
  return TokenKind::Identifier;
}

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_JAVAAST_TOKEN_H
