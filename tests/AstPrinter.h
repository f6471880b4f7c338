//===- tests/AstPrinter.h - Java source re-emission ------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty printer that renders the AST back to compilable Java-subset
/// source, for round-trip property tests: print(parse(print(T))) ==
/// print(T). No product stage prints an AST, so it is built only into the
/// tests (library diffcode_ast_printer), never into the shipping
/// libraries.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_TESTS_ASTPRINTER_H
#define DIFFCODE_TESTS_ASTPRINTER_H

#include "javaast/Ast.h"

#include <string>

namespace diffcode {
namespace java {

/// Renders AST subtrees to text with two-space indentation.
class AstPrinter {
public:
  /// Prints a whole compilation unit.
  std::string print(const CompilationUnit *Unit);

  /// Prints a single expression (no trailing newline).
  std::string printExpr(const Expr *E);

  /// Prints a single statement at indent level 0.
  std::string printStmt(const Stmt *S);

private:
  void emitUnit(const CompilationUnit *Unit);
  void emitClass(const ClassDecl *Class, int Indent);
  void emitField(const FieldDecl *Field, int Indent);
  void emitMethod(const MethodDecl *Method, int Indent);
  void emitStmt(const Stmt *S, int Indent);
  void emitBlock(const Block *B, int Indent);
  void emitExpr(const Expr *E);
  void emitModifiers(unsigned Modifiers);
  void indent(int Level);
  void emitStringLiteral(const std::string &Value);

  std::string Out;
};

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_TESTS_ASTPRINTER_H
