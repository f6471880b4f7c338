//===- tests/test_frontend_equivalence.cpp - Front-end differential suite --===//
//
// Locks the table-driven lexer + arena parser rewrite to the retained
// seed front end (tests/ReferenceLexer.h): on every source in the full
// generated corpus, token streams, AstPrinter output, and diagnostics
// must be byte-identical, and the whole-corpus report JSON must be
// byte-identical across 1/2/8 pipeline threads. Any divergence means the
// rewrite changed observable behavior and must be fixed, not waived.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLexer.h"
#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "AstPrinter.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::java;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Every distinct source text in the default generated corpus (old and
/// new version of every mined change, empties dropped).
const std::vector<std::string> &corpusSources() {
  static const std::vector<std::string> *Sources = [] {
    corpus::CorpusGenerator Gen;
    corpus::Corpus C = Gen.generate();
    corpus::Miner M(api());
    auto *Out = new std::vector<std::string>;
    std::set<std::string> Seen;
    for (const corpus::CodeChange *Change : M.mine(C))
      for (const std::string *Code : {&Change->OldCode, &Change->NewCode})
        if (!Code->empty() && Seen.insert(*Code).second)
          Out->push_back(*Code);
    return Out;
  }();
  return *Sources;
}

/// Renders a diagnostics list to one comparable string (level + rendered
/// message per line).
std::string diagsToString(const DiagnosticsEngine &Diags) {
  std::ostringstream Os;
  for (const Diagnostic &D : Diags.all())
    Os << (D.Level == DiagLevel::Error ? "error|" : "warning|") << D.str()
       << "\n";
  Os << "budget=" << (Diags.budgetExceeded() ? 1 : 0);
  return Os.str();
}

/// Asserts the production and reference lexers agree byte for byte on
/// \p Source: token count, kinds, spellings, full locations (line,
/// column, and offset), and diagnostics.
void expectTokenEquivalence(std::string_view Source, const char *Tag) {
  DiagnosticsEngine NewDiags, RefDiags;
  Lexer NewLex(Source, NewDiags);
  ReferenceLexer RefLex(Source, RefDiags);
  TokenStream NewStream = NewLex.lexAll();
  TokenStream RefStream = RefLex.lexAll();
  ASSERT_EQ(NewStream.size(), RefStream.size()) << Tag;
  for (std::size_t I = 0; I < NewStream.size(); ++I) {
    const Token &A = NewStream[I];
    const Token &B = RefStream[I];
    ASSERT_EQ(A.Kind, B.Kind) << Tag << " token " << I;
    ASSERT_EQ(A.Text, B.Text) << Tag << " token " << I;
    ASSERT_EQ(A.Loc.Line, B.Loc.Line) << Tag << " token " << I;
    ASSERT_EQ(A.Loc.Column, B.Loc.Column) << Tag << " token " << I;
    ASSERT_EQ(A.Loc.Offset, B.Loc.Offset) << Tag << " token " << I;
  }
  ASSERT_EQ(diagsToString(NewDiags), diagsToString(RefDiags)) << Tag;
}

/// Parses \p Source from both lexers' token streams and asserts the
/// printed trees and diagnostics are byte-identical.
void expectParseEquivalence(std::string_view Source, const char *Tag) {
  AstContext NewCtx, RefCtx;
  DiagnosticsEngine NewDiags, RefDiags;
  Lexer NewLex(Source, NewDiags);
  Parser NewParser(NewLex.lexAll(), NewCtx, NewDiags);
  CompilationUnit *NewUnit = NewParser.parseCompilationUnit();
  ReferenceLexer RefLex(Source, RefDiags);
  Parser RefParser(RefLex.lexAll(), RefCtx, RefDiags);
  CompilationUnit *RefUnit = RefParser.parseCompilationUnit();
  ASSERT_EQ(NewUnit == nullptr, RefUnit == nullptr) << Tag;
  ASSERT_EQ(diagsToString(NewDiags), diagsToString(RefDiags)) << Tag;
  if (NewUnit) {
    AstPrinter NewPrinter, RefPrinter;
    ASSERT_EQ(NewPrinter.print(NewUnit), RefPrinter.print(RefUnit)) << Tag;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Token streams over the full generated corpus.
//===----------------------------------------------------------------------===//

TEST(FrontendEquivalence, TokenStreamsByteIdenticalOnFullCorpus) {
  const std::vector<std::string> &Sources = corpusSources();
  ASSERT_GE(Sources.size(), 1000u)
      << "corpus unexpectedly small; differential coverage would be weak";
  for (std::size_t I = 0; I < Sources.size(); ++I) {
    SCOPED_TRACE("source " + std::to_string(I));
    expectTokenEquivalence(Sources[I], "corpus");
    if (HasFatalFailure())
      return;
  }
}

TEST(FrontendEquivalence, PrintedAstAndDiagnosticsIdenticalOnFullCorpus) {
  const std::vector<std::string> &Sources = corpusSources();
  for (std::size_t I = 0; I < Sources.size(); ++I) {
    SCOPED_TRACE("source " + std::to_string(I));
    expectParseEquivalence(Sources[I], "corpus");
    if (HasFatalFailure())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Hand-picked edge cases the corpus generator does not emit.
//===----------------------------------------------------------------------===//

TEST(FrontendEquivalence, EdgeCaseInputsAgree) {
  const char *Cases[] = {
      "",
      "\n\n\n",
      "\r\n\r\n",
      "a",
      "/* unterminated",
      "// only a comment",
      "\"unterminated string",
      "\"unterminated with newline\nx",
      "'",
      "'a",
      "''",
      "'\\u0041'",
      "\"\\u\"",
      "\"\\u1\"",
      "\"tab\\there\"",
      "\"backslash at end\\",
      "int x = 0x_1F__ + 0b10_01 + 1_000_000L + 3.14f + 2.5d;",
      "a # b ` c \x01 d \x7f e",
      "x...y..z",
      "a+++++b",
      "<<>>><=>=<",
      "@interface F { }",
      "class C { C() { this(1); } }",
      "\xc3\xa9\xc3\xa8",      // non-ASCII bytes
      "ident\xc3\xa9rest",     // non-ASCII inside identifier run
      "\"caf\xc3\xa9\"",       // non-ASCII inside string
  };
  for (const char *Source : Cases) {
    SCOPED_TRACE(std::string("case: ") + Source);
    expectTokenEquivalence(Source, "edge");
    if (HasFatalFailure())
      return;
    expectParseEquivalence(Source, "edge");
    if (HasFatalFailure())
      return;
  }
}

TEST(FrontendEquivalence, KeywordLookupMatchesReferenceTable) {
  // The table-driven lookupKeyword vs the seed hash map, on every
  // keyword, every keyword prefix/extension, and random short strings.
  const char *Keywords[] = {
      "abstract", "assert",     "boolean",  "break",      "byte",
      "case",     "catch",      "char",     "class",      "continue",
      "default",  "do",         "double",   "else",       "extends",
      "false",    "final",      "finally",  "float",      "for",
      "if",       "implements", "import",   "instanceof", "int",
      "interface", "long",      "new",      "null",       "package",
      "private",  "protected",  "public",   "return",     "short",
      "static",   "super",      "switch",   "synchronized", "this",
      "throw",    "throws",     "true",     "try",        "void",
      "while"};
  for (const char *K : Keywords) {
    std::string S(K);
    EXPECT_EQ(lookupKeyword(S), referenceLookupKeyword(S)) << S;
    EXPECT_NE(lookupKeyword(S), TokenKind::Identifier) << S;
    for (std::size_t Cut = 0; Cut < S.size(); ++Cut)
      EXPECT_EQ(lookupKeyword(S.substr(0, Cut)),
                referenceLookupKeyword(S.substr(0, Cut)))
          << S.substr(0, Cut);
    EXPECT_EQ(lookupKeyword(S + "x"), referenceLookupKeyword(S + "x")) << S;
    std::string Upper = S;
    Upper[0] = static_cast<char>(Upper[0] - 'a' + 'A');
    EXPECT_EQ(lookupKeyword(Upper), referenceLookupKeyword(Upper)) << Upper;
  }
  Rng R(20260808);
  const char Alphabet[] = "abcdefghijklmnopqrstuvwxyz_$";
  for (int Case = 0; Case < 20000; ++Case) {
    std::string S;
    std::size_t Len = R.range(0, 13);
    for (std::size_t I = 0; I < Len; ++I)
      S += Alphabet[R.index(sizeof(Alphabet) - 1)];
    ASSERT_EQ(lookupKeyword(S), referenceLookupKeyword(S)) << S;
  }
}

//===----------------------------------------------------------------------===//
// Whole-corpus report JSON across thread counts.
//===----------------------------------------------------------------------===//

TEST(FrontendEquivalence, CorpusReportJsonByteIdenticalAcrossThreads) {
  corpus::CorpusGenerator Gen;
  corpus::Corpus C = Gen.generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_GE(Mined.size(), 1000u);

  auto Run = [&Mined](unsigned Threads) {
    core::PipelineConfig Opts;
    Opts.Threads = Threads;
    core::DiffCode System(api(), Opts);
    return core::corpusReportToJson(System.run(
        {.Changes = Mined, .TargetClasses = api().targetClasses()}));
  };

  std::string Serial = Run(1);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Run(2)) << "2-thread report diverged";
  EXPECT_EQ(Serial, Run(8)) << "8-thread report diverged";
}

//===----------------------------------------------------------------------===//
// Tier-1 smoke: the bundled on-disk corpus through the new front end.
//===----------------------------------------------------------------------===//

TEST(FrontendSmoke, SmokeCorpusParsesThroughNewFrontEnd) {
  namespace fs = std::filesystem;
  fs::path Root(DIFFCODE_SMOKE_CORPUS);
  ASSERT_TRUE(fs::exists(Root)) << Root;
  std::size_t Files = 0;
  std::size_t Clean = 0;
  for (const fs::directory_entry &Entry :
       fs::recursive_directory_iterator(Root)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".java")
      continue;
    ++Files;
    std::ifstream In(Entry.path());
    std::stringstream Ss;
    Ss << In.rdbuf();
    std::string Source = Ss.str();
    SCOPED_TRACE(Entry.path().string());
    expectTokenEquivalence(Source, "smoke");
    if (HasFatalFailure())
      return;

    // The smoke corpus deliberately includes broken files; the bar here
    // is termination inside default budgets, not error-free parses.
    AstContext Ctx;
    DiagnosticsEngine Diags;
    CompilationUnit *Unit = parseJava(Source, Ctx, Diags);
    ASSERT_NE(Unit, nullptr);
    EXPECT_FALSE(Diags.budgetExceeded()) << diagsToString(Diags);
    EXPECT_GT(Ctx.size(), 0u);
    EXPECT_GT(Ctx.arenaBytes(), 0u);
    if (!Diags.hasErrors())
      ++Clean;
  }
  ASSERT_GT(Files, 0u) << "no .java files under " << Root;
  EXPECT_GT(Clean, 0u) << "every smoke file produced errors";
}
