//===- tests/ReferenceLexer.cpp --------------------------------------------===//
//
// Seed lexer retained as the differential oracle. The scanning logic is
// the original implementation, unchanged; only makeToken differs (it
// interns the built std::string into the stream arena so Token::Text can
// be a view).
//
//===----------------------------------------------------------------------===//

#include "ReferenceLexer.h"

#include <cctype>
#include <unordered_map>

using namespace diffcode::java;

TokenKind diffcode::java::referenceLookupKeyword(std::string_view Spelling) {
  static const std::unordered_map<std::string_view, TokenKind> Keywords = {
      {"abstract", TokenKind::KwAbstract},
      {"assert", TokenKind::KwAssert},
      {"boolean", TokenKind::KwBoolean},
      {"break", TokenKind::KwBreak},
      {"byte", TokenKind::KwByte},
      {"case", TokenKind::KwCase},
      {"catch", TokenKind::KwCatch},
      {"char", TokenKind::KwChar},
      {"class", TokenKind::KwClass},
      {"continue", TokenKind::KwContinue},
      {"default", TokenKind::KwDefault},
      {"do", TokenKind::KwDo},
      {"double", TokenKind::KwDouble},
      {"else", TokenKind::KwElse},
      {"extends", TokenKind::KwExtends},
      {"false", TokenKind::KwFalse},
      {"final", TokenKind::KwFinal},
      {"finally", TokenKind::KwFinally},
      {"float", TokenKind::KwFloat},
      {"for", TokenKind::KwFor},
      {"if", TokenKind::KwIf},
      {"implements", TokenKind::KwImplements},
      {"import", TokenKind::KwImport},
      {"instanceof", TokenKind::KwInstanceof},
      {"int", TokenKind::KwInt},
      {"interface", TokenKind::KwInterface},
      {"long", TokenKind::KwLong},
      {"new", TokenKind::KwNew},
      {"null", TokenKind::KwNull},
      {"package", TokenKind::KwPackage},
      {"private", TokenKind::KwPrivate},
      {"protected", TokenKind::KwProtected},
      {"public", TokenKind::KwPublic},
      {"return", TokenKind::KwReturn},
      {"short", TokenKind::KwShort},
      {"static", TokenKind::KwStatic},
      {"super", TokenKind::KwSuper},
      {"switch", TokenKind::KwSwitch},
      {"synchronized", TokenKind::KwSynchronized},
      {"this", TokenKind::KwThis},
      {"throw", TokenKind::KwThrow},
      {"throws", TokenKind::KwThrows},
      {"true", TokenKind::KwTrue},
      {"try", TokenKind::KwTry},
      {"void", TokenKind::KwVoid},
      {"while", TokenKind::KwWhile},
  };
  auto It = Keywords.find(Spelling);
  return It == Keywords.end() ? TokenKind::Identifier : It->second;
}

ReferenceLexer::ReferenceLexer(std::string_view Buffer,
                               DiagnosticsEngine &Diags)
    : Buffer(Buffer), Diags(Diags) {}

char ReferenceLexer::peek(std::size_t Ahead) const {
  return Pos + Ahead < Buffer.size() ? Buffer[Pos + Ahead] : '\0';
}

char ReferenceLexer::advance() {
  char C = Buffer[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool ReferenceLexer::match(char Expected) {
  if (atEnd() || Buffer[Pos] != Expected)
    return false;
  advance();
  return true;
}

SourceLocation ReferenceLexer::here() const {
  return {Line, Col, static_cast<std::uint32_t>(Pos)};
}

void ReferenceLexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLocation Start = here();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    return;
  }
}

Token ReferenceLexer::makeToken(TokenKind Kind, SourceLocation Loc,
                                std::string Text) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  T.Text = Stream.Storage.copy(Text);
  return T;
}

Token ReferenceLexer::lexIdentifierOrKeyword(SourceLocation Loc) {
  std::size_t Start = Pos;
  while (!atEnd() &&
         (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_' ||
          peek() == '$'))
    advance();
  std::string Text(Buffer.substr(Start, Pos - Start));
  TokenKind Kind = referenceLookupKeyword(Text);
  return makeToken(Kind, Loc, std::move(Text));
}

Token ReferenceLexer::lexNumber(SourceLocation Loc) {
  std::size_t Start = Pos;
  bool IsHex = false;
  // Java allows '_' separators inside numeric literals (1_000_000).
  auto IsDigitSep = [this](bool Hex) {
    char C = peek();
    if (C == '_')
      return true;
    return Hex ? std::isxdigit(static_cast<unsigned char>(C)) != 0
               : std::isdigit(static_cast<unsigned char>(C)) != 0;
  };
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    IsHex = true;
    while (!atEnd() && IsDigitSep(true))
      advance();
  } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
    advance();
    advance();
    IsHex = true; // no fractional part either
    while (!atEnd() && (peek() == '0' || peek() == '1' || peek() == '_'))
      advance();
  } else {
    while (!atEnd() && IsDigitSep(false))
      advance();
  }
  if (!IsHex && peek() == '.' &&
      std::isdigit(static_cast<unsigned char>(peek(1)))) {
    advance();
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      advance();
  }
  TokenKind Kind = TokenKind::IntLiteral;
  if (peek() == 'L' || peek() == 'l') {
    advance();
    Kind = TokenKind::LongLiteral;
  } else if (peek() == 'f' || peek() == 'F' || peek() == 'd' || peek() == 'D') {
    advance();
  }
  std::string Text(Buffer.substr(Start, Pos - Start));
  return makeToken(Kind, Loc, std::move(Text));
}

char ReferenceLexer::lexEscape() {
  if (atEnd())
    return '\\';
  char C = advance();
  switch (C) {
  case 'n':
    return '\n';
  case 't':
    return '\t';
  case 'r':
    return '\r';
  case 'b':
    return '\b';
  case 'f':
    return '\f';
  case '0':
    return '\0';
  case '\'':
  case '"':
  case '\\':
    return C;
  case 'u': {
    // \uXXXX: decode and narrow to one byte (best effort; the corpus is
    // ASCII).
    unsigned Value = 0;
    for (int I = 0; I < 4 && !atEnd() &&
                    std::isxdigit(static_cast<unsigned char>(peek()));
         ++I) {
      char H = advance();
      Value = Value * 16 +
              (std::isdigit(static_cast<unsigned char>(H))
                   ? static_cast<unsigned>(H - '0')
                   : static_cast<unsigned>(std::tolower(H) - 'a') + 10);
    }
    return static_cast<char>(Value & 0xFF);
  }
  default:
    return C;
  }
}

Token ReferenceLexer::lexString(SourceLocation Loc) {
  advance(); // opening quote
  std::string Text;
  while (!atEnd() && peek() != '"' && peek() != '\n') {
    char C = advance();
    if (C == '\\')
      C = lexEscape();
    Text += C;
  }
  if (atEnd() || peek() == '\n') {
    Diags.error(Loc, "unterminated string literal");
  } else {
    advance(); // closing quote
  }
  return makeToken(TokenKind::StringLiteral, Loc, std::move(Text));
}

Token ReferenceLexer::lexChar(SourceLocation Loc) {
  advance(); // opening quote
  std::string Text;
  if (!atEnd() && peek() != '\'') {
    char C = advance();
    if (C == '\\')
      C = lexEscape();
    Text += C;
  }
  if (!match('\''))
    Diags.error(Loc, "unterminated char literal");
  return makeToken(TokenKind::CharLiteral, Loc, std::move(Text));
}

Token ReferenceLexer::next() {
  skipTrivia();
  SourceLocation Loc = here();
  if (atEnd())
    return makeToken(TokenKind::EndOfFile, Loc, "");

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$')
    return lexIdentifierOrKeyword(Loc);
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber(Loc);
  if (C == '"')
    return lexString(Loc);
  if (C == '\'')
    return lexChar(Loc);

  advance();
  switch (C) {
  case '{':
    return makeToken(TokenKind::LBrace, Loc, "{");
  case '}':
    return makeToken(TokenKind::RBrace, Loc, "}");
  case '(':
    return makeToken(TokenKind::LParen, Loc, "(");
  case ')':
    return makeToken(TokenKind::RParen, Loc, ")");
  case '[':
    return makeToken(TokenKind::LBracket, Loc, "[");
  case ']':
    return makeToken(TokenKind::RBracket, Loc, "]");
  case ';':
    return makeToken(TokenKind::Semi, Loc, ";");
  case ',':
    return makeToken(TokenKind::Comma, Loc, ",");
  case '.':
    if (peek() == '.' && peek(1) == '.') {
      advance();
      advance();
      return makeToken(TokenKind::Ellipsis, Loc, "...");
    }
    return makeToken(TokenKind::Dot, Loc, ".");
  case '@':
    return makeToken(TokenKind::At, Loc, "@");
  case '?':
    return makeToken(TokenKind::Question, Loc, "?");
  case ':':
    if (match(':'))
      return makeToken(TokenKind::ColonColon, Loc, "::");
    return makeToken(TokenKind::Colon, Loc, ":");
  case '=':
    if (match('='))
      return makeToken(TokenKind::EqualEqual, Loc, "==");
    return makeToken(TokenKind::Assign, Loc, "=");
  case '+':
    if (match('='))
      return makeToken(TokenKind::PlusAssign, Loc, "+=");
    if (match('+'))
      return makeToken(TokenKind::PlusPlus, Loc, "++");
    return makeToken(TokenKind::Plus, Loc, "+");
  case '-':
    if (match('='))
      return makeToken(TokenKind::MinusAssign, Loc, "-=");
    if (match('-'))
      return makeToken(TokenKind::MinusMinus, Loc, "--");
    if (match('>'))
      return makeToken(TokenKind::Arrow, Loc, "->");
    return makeToken(TokenKind::Minus, Loc, "-");
  case '*':
    if (match('='))
      return makeToken(TokenKind::StarAssign, Loc, "*=");
    return makeToken(TokenKind::Star, Loc, "*");
  case '/':
    if (match('='))
      return makeToken(TokenKind::SlashAssign, Loc, "/=");
    return makeToken(TokenKind::Slash, Loc, "/");
  case '%':
    return makeToken(TokenKind::Percent, Loc, "%");
  case '!':
    if (match('='))
      return makeToken(TokenKind::NotEqual, Loc, "!=");
    return makeToken(TokenKind::Not, Loc, "!");
  case '~':
    return makeToken(TokenKind::Tilde, Loc, "~");
  case '&':
    if (match('&'))
      return makeToken(TokenKind::AmpAmp, Loc, "&&");
    return makeToken(TokenKind::Amp, Loc, "&");
  case '|':
    if (match('|'))
      return makeToken(TokenKind::PipePipe, Loc, "||");
    return makeToken(TokenKind::Pipe, Loc, "|");
  case '^':
    return makeToken(TokenKind::Caret, Loc, "^");
  case '<':
    if (match('='))
      return makeToken(TokenKind::LessEqual, Loc, "<=");
    if (match('<'))
      return makeToken(TokenKind::Shl, Loc, "<<");
    return makeToken(TokenKind::Less, Loc, "<");
  case '>':
    if (match('='))
      return makeToken(TokenKind::GreaterEqual, Loc, ">=");
    if (match('>'))
      return makeToken(TokenKind::Shr, Loc, ">>");
    return makeToken(TokenKind::Greater, Loc, ">");
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Unknown, Loc, std::string(1, C));
  }
}

TokenStream ReferenceLexer::lexAll() {
  while (true) {
    Stream.Tokens.push_back(next());
    if (Stream.Tokens.back().is(TokenKind::EndOfFile))
      return std::move(Stream);
  }
}
