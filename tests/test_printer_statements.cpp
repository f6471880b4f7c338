//===- tests/test_printer_statements.cpp - AstPrinter detail tests ---------===//

#include "AstPrinter.h"
#include "javaast/Parser.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::java;

namespace {

struct Parsed {
  AstContext Ctx;
  DiagnosticsEngine Diags;
  CompilationUnit *Unit = nullptr;
};

std::unique_ptr<Parsed> parse(std::string_view Source) {
  auto P = std::make_unique<Parsed>();
  P->Unit = parseJava(Source, P->Ctx, P->Diags);
  EXPECT_FALSE(P->Diags.hasErrors())
      << (P->Diags.all().empty() ? "" : P->Diags.all().front().str());
  return P;
}

/// Prints the first statement of `class T { void m() { <Stmt> } }`.
std::string printFirstStmt(const std::string &Stmt) {
  auto P = parse("class T { void m() { " + Stmt + " } }");
  AstPrinter Printer;
  return Printer.printStmt(P->Unit->Types[0]->Methods[0]->Body->Stmts[0]);
}

std::string printFirstExpr(const std::string &Expr) {
  auto P = parse("class T { void m() { Object x = " + Expr + "; } }");
  AstPrinter Printer;
  const auto *Decl =
      static_cast<const LocalVarDeclStmt *>(
          P->Unit->Types[0]->Methods[0]->Body->Stmts[0]);
  return Printer.printExpr(Decl->Init);
}

} // namespace

TEST(PrinterStatements, LocalDeclWithArrayInit) {
  EXPECT_EQ(printFirstStmt("byte[] b = {1, 2, 3};"),
            "byte[] b = { 1, 2, 3 };\n");
}

TEST(PrinterStatements, IfElse) {
  std::string Out = printFirstStmt("if (a) { x(); } else { y(); }");
  EXPECT_NE(Out.find("if (a)"), std::string::npos);
  EXPECT_NE(Out.find("else"), std::string::npos);
}

TEST(PrinterStatements, DoWhile) {
  std::string Out = printFirstStmt("do { x(); } while (a);");
  EXPECT_NE(Out.find("do"), std::string::npos);
  EXPECT_NE(Out.find("while (a);"), std::string::npos);
}

TEST(PrinterStatements, ForHeaderForms) {
  EXPECT_NE(printFirstStmt("for (int i = 0; i < 9; i++) x();")
                .find("for (int i = 0; i < 9;"),
            std::string::npos);
  EXPECT_NE(printFirstStmt("for (;;) { break; }").find("for (; ; )"),
            std::string::npos);
}

TEST(PrinterStatements, TryCatchFinally) {
  std::string Out = printFirstStmt(
      "try { a(); } catch (IOException | Error e) { b(); } finally { c(); }");
  EXPECT_NE(Out.find("try {"), std::string::npos);
  EXPECT_NE(Out.find("catch (IOException | Error e)"), std::string::npos);
  EXPECT_NE(Out.find("finally {"), std::string::npos);
}

TEST(PrinterStatements, ThrowBreakContinueEmpty) {
  EXPECT_EQ(printFirstStmt("throw e;"), "throw e;\n");
  EXPECT_EQ(printFirstStmt("break;"), "break;\n");
  EXPECT_EQ(printFirstStmt("continue;"), "continue;\n");
  EXPECT_EQ(printFirstStmt(";"), ";\n");
}

TEST(PrinterStatements, ReturnForms) {
  EXPECT_EQ(printFirstStmt("return;"), "return;\n");
  EXPECT_EQ(printFirstStmt("return x + 1;"), "return x + 1;\n");
}

TEST(PrinterExpressions, Literals) {
  EXPECT_EQ(printFirstExpr("42"), "42");
  EXPECT_EQ(printFirstExpr("0x1F"), "0x1F"); // spelling preserved
  EXPECT_EQ(printFirstExpr("42L"), "42L");
  EXPECT_EQ(printFirstExpr("true"), "true");
  EXPECT_EQ(printFirstExpr("null"), "null");
  EXPECT_EQ(printFirstExpr("'a'"), "'a'");
  EXPECT_EQ(printFirstExpr("'\\''"), "'\\''");
}

TEST(PrinterExpressions, CallsAndAccess) {
  EXPECT_EQ(printFirstExpr("Cipher.getInstance(\"AES\")"),
            "Cipher.getInstance(\"AES\")");
  EXPECT_EQ(printFirstExpr("a.b.c"), "a.b.c");
  EXPECT_EQ(printFirstExpr("arr[i + 1]"), "arr[i + 1]");
  EXPECT_EQ(printFirstExpr("f(g(1), 2)"), "f(g(1), 2)");
}

TEST(PrinterExpressions, NewForms) {
  EXPECT_EQ(printFirstExpr("new Foo(1, \"x\")"), "new Foo(1, \"x\")");
  EXPECT_EQ(printFirstExpr("new byte[16]"), "new byte[16]");
  EXPECT_EQ(printFirstExpr("new int[] {1, 2}"), "new int[] { 1, 2 }");
  EXPECT_EQ(printFirstExpr("new byte[2][8]"), "new byte[2][8]");
}

TEST(PrinterExpressions, OperatorsAndParens) {
  EXPECT_EQ(printFirstExpr("a + b * c"), "a + (b * c)");
  EXPECT_EQ(printFirstExpr("-a"), "-a");
  EXPECT_EQ(printFirstExpr("!(a && b)"), "!(a && b)");
  EXPECT_EQ(printFirstExpr("a instanceof Foo"), "a instanceof Foo");
  EXPECT_EQ(printFirstExpr("(byte) v"), "(byte) v");
  EXPECT_EQ(printFirstExpr("c ? a : b"), "c ? a : b");
}

TEST(PrinterExpressions, UnicodeInStringsSurvives) {
  auto P = parse("class T { String s = \"café\"; }");
  AstPrinter Printer;
  std::string Out = Printer.print(P->Unit);
  EXPECT_NE(Out.find("café"), std::string::npos);
}

TEST(PrinterDeclarations, InterfacePrinted) {
  auto P = parse("interface I { void m(int x); }");
  AstPrinter Printer;
  std::string Out = Printer.print(P->Unit);
  EXPECT_NE(Out.find("interface I {"), std::string::npos);
  EXPECT_NE(Out.find("void m(int x);"), std::string::npos);
}

TEST(PrinterDeclarations, ThrowsClausePrinted) {
  auto P = parse("class A { void m() throws IOException, Error { } }");
  AstPrinter Printer;
  std::string Out = Printer.print(P->Unit);
  EXPECT_NE(Out.find("throws IOException, Error"), std::string::npos);
}

TEST(PrinterDeclarations, PackageAndImportsPrinted) {
  auto P = parse("package a.b;\nimport x.Y;\nclass C { }");
  AstPrinter Printer;
  std::string Out = Printer.print(P->Unit);
  EXPECT_EQ(Out.rfind("package a.b;", 0), 0u);
  EXPECT_NE(Out.find("import x.Y;"), std::string::npos);
}
