//===- tests/AstPrinter.cpp ------------------------------------------------===//

#include "AstPrinter.h"

#include "support/Casting.h"

#include <cassert>

using namespace diffcode;
using namespace diffcode::java;

std::string AstPrinter::print(const CompilationUnit *Unit) {
  Out.clear();
  emitUnit(Unit);
  return std::move(Out);
}

std::string AstPrinter::printExpr(const Expr *E) {
  Out.clear();
  emitExpr(E);
  return std::move(Out);
}

std::string AstPrinter::printStmt(const Stmt *S) {
  Out.clear();
  emitStmt(S, 0);
  return std::move(Out);
}

void AstPrinter::indent(int Level) { Out.append(Level * 2, ' '); }

void AstPrinter::emitModifiers(unsigned Modifiers) {
  if (Modifiers & ModPublic)
    Out += "public ";
  if (Modifiers & ModProtected)
    Out += "protected ";
  if (Modifiers & ModPrivate)
    Out += "private ";
  if (Modifiers & ModAbstract)
    Out += "abstract ";
  if (Modifiers & ModStatic)
    Out += "static ";
  if (Modifiers & ModFinal)
    Out += "final ";
  if (Modifiers & ModSynchronized)
    Out += "synchronized ";
}

void AstPrinter::emitStringLiteral(const std::string &Value) {
  Out += '"';
  for (char C : Value) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out += C;
    }
  }
  Out += '"';
}

void AstPrinter::emitUnit(const CompilationUnit *Unit) {
  if (!Unit->PackageName.empty())
    Out += "package " + Unit->PackageName + ";\n\n";
  for (const std::string &Import : Unit->Imports)
    Out += "import " + Import + ";\n";
  if (!Unit->Imports.empty())
    Out += '\n';
  for (const ClassDecl *Class : Unit->Types)
    emitClass(Class, 0);
}

void AstPrinter::emitClass(const ClassDecl *Class, int Indent) {
  indent(Indent);
  emitModifiers(Class->Modifiers);
  Out += Class->IsInterface ? "interface " : "class ";
  Out += Class->Name;
  if (!Class->SuperClass.empty())
    Out += " extends " + Class->SuperClass;
  if (!Class->Interfaces.empty()) {
    Out += " implements ";
    for (std::size_t I = 0; I < Class->Interfaces.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += Class->Interfaces[I];
    }
  }
  Out += " {\n";
  for (const FieldDecl *Field : Class->Fields)
    emitField(Field, Indent + 1);
  for (const MethodDecl *Method : Class->Methods)
    emitMethod(Method, Indent + 1);
  for (const ClassDecl *Nested : Class->NestedClasses)
    emitClass(Nested, Indent + 1);
  indent(Indent);
  Out += "}\n";
}

void AstPrinter::emitField(const FieldDecl *Field, int Indent) {
  indent(Indent);
  emitModifiers(Field->Modifiers);
  Out += Field->Type.str() + " " + Field->Name;
  if (Field->Init) {
    Out += " = ";
    emitExpr(Field->Init);
  }
  Out += ";\n";
}

void AstPrinter::emitMethod(const MethodDecl *Method, int Indent) {
  Out += '\n';
  indent(Indent);
  emitModifiers(Method->Modifiers);
  if (!Method->IsConstructor)
    Out += Method->ReturnType.str() + " ";
  Out += Method->Name + "(";
  for (std::size_t I = 0; I < Method->Params.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Method->Params[I].Type.str() + " " + Method->Params[I].Name;
  }
  Out += ")";
  if (!Method->Throws.empty()) {
    Out += " throws ";
    for (std::size_t I = 0; I < Method->Throws.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += Method->Throws[I].Name;
    }
  }
  if (!Method->Body) {
    Out += ";\n";
    return;
  }
  Out += " ";
  emitBlock(Method->Body, Indent);
  Out += '\n';
}

void AstPrinter::emitBlock(const Block *B, int Indent) {
  Out += "{\n";
  for (const Stmt *S : B->Stmts)
    emitStmt(S, Indent + 1);
  indent(Indent);
  Out += "}";
}

void AstPrinter::emitStmt(const Stmt *S, int Indent) {
  switch (S->getKind()) {
  case NodeKind::BlockStmt:
    indent(Indent);
    emitBlock(cast<Block>(S), Indent);
    Out += '\n';
    return;
  case NodeKind::LocalVarDeclStmt: {
    const auto *D = cast<LocalVarDeclStmt>(S);
    indent(Indent);
    Out += D->Type.str() + " " + D->Name;
    if (D->Init) {
      Out += " = ";
      emitExpr(D->Init);
    }
    Out += ";\n";
    return;
  }
  case NodeKind::ExprStmt: {
    indent(Indent);
    emitExpr(cast<ExprStmt>(S)->E);
    Out += ";\n";
    return;
  }
  case NodeKind::IfStmt: {
    const auto *If = cast<IfStmt>(S);
    indent(Indent);
    Out += "if (";
    emitExpr(If->Cond);
    Out += ")\n";
    emitStmt(If->Then, Indent + 1);
    if (If->Else) {
      indent(Indent);
      Out += "else\n";
      emitStmt(If->Else, Indent + 1);
    }
    return;
  }
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(S);
    indent(Indent);
    Out += "while (";
    emitExpr(W->Cond);
    Out += ")\n";
    emitStmt(W->Body, Indent + 1);
    return;
  }
  case NodeKind::DoStmt: {
    const auto *D = cast<DoStmt>(S);
    indent(Indent);
    Out += "do\n";
    emitStmt(D->Body, Indent + 1);
    indent(Indent);
    Out += "while (";
    emitExpr(D->Cond);
    Out += ");\n";
    return;
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(S);
    indent(Indent);
    Out += "for (";
    if (F->Init) {
      // Init prints with its own ';' and newline; splice it inline.
      std::size_t Mark = Out.size();
      emitStmt(F->Init, 0);
      // Drop the trailing newline the statement printer added.
      while (Out.size() > Mark && (Out.back() == '\n' || Out.back() == ' '))
        Out.pop_back();
    } else {
      Out += ";";
    }
    Out += " ";
    if (F->Cond)
      emitExpr(F->Cond);
    Out += "; ";
    if (F->Update)
      emitExpr(F->Update);
    Out += ")\n";
    emitStmt(F->Body, Indent + 1);
    return;
  }
  case NodeKind::ReturnStmt: {
    const auto *R = cast<ReturnStmt>(S);
    indent(Indent);
    Out += "return";
    if (R->Value) {
      Out += ' ';
      emitExpr(R->Value);
    }
    Out += ";\n";
    return;
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    indent(Indent);
    Out += "try ";
    emitBlock(T->Body, Indent);
    for (const CatchClause &Clause : T->Catches) {
      Out += " catch (";
      for (std::size_t I = 0; I < Clause.Types.size(); ++I) {
        if (I != 0)
          Out += " | ";
        Out += Clause.Types[I].str();
      }
      Out += " " + (Clause.Name.empty() ? std::string("e") : Clause.Name) +
             ") ";
      emitBlock(Clause.Body, Indent);
    }
    if (T->Finally) {
      Out += " finally ";
      emitBlock(T->Finally, Indent);
    }
    Out += '\n';
    return;
  }
  case NodeKind::ThrowStmt: {
    indent(Indent);
    Out += "throw ";
    emitExpr(cast<ThrowStmt>(S)->Value);
    Out += ";\n";
    return;
  }
  case NodeKind::BreakStmt:
    indent(Indent);
    Out += "break;\n";
    return;
  case NodeKind::ContinueStmt:
    indent(Indent);
    Out += "continue;\n";
    return;
  case NodeKind::EmptyStmt:
    indent(Indent);
    Out += ";\n";
    return;
  default:
    assert(false && "not a statement kind");
  }
}

namespace {
const char *binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Rem:
    return "%";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  case BinaryOp::BitAnd:
    return "&";
  case BinaryOp::BitOr:
    return "|";
  case BinaryOp::BitXor:
    return "^";
  case BinaryOp::Shl:
    return "<<";
  case BinaryOp::Shr:
    return ">>";
  }
  return "?";
}

/// True if \p E needs parentheses when printed as an operand.
bool needsParens(const Expr *E) {
  switch (E->getKind()) {
  case NodeKind::BinaryExpr:
  case NodeKind::ConditionalExpr:
  case NodeKind::AssignExpr:
  case NodeKind::InstanceofExpr:
  case NodeKind::CastExpr:
    return true;
  default:
    return false;
  }
}
} // namespace

void AstPrinter::emitExpr(const Expr *E) {
  auto EmitOperand = [this](const Expr *Operand) {
    if (needsParens(Operand)) {
      Out += '(';
      emitExpr(Operand);
      Out += ')';
    } else {
      emitExpr(Operand);
    }
  };

  switch (E->getKind()) {
  case NodeKind::IntLiteralExpr:
    Out += cast<IntLiteralExpr>(E)->Spelling;
    return;
  case NodeKind::LongLiteralExpr:
    Out += cast<LongLiteralExpr>(E)->Spelling;
    return;
  case NodeKind::StringLiteralExpr:
    emitStringLiteral(cast<StringLiteralExpr>(E)->Value);
    return;
  case NodeKind::CharLiteralExpr: {
    Out += '\'';
    char C = cast<CharLiteralExpr>(E)->Value;
    if (C == '\'' || C == '\\')
      Out += '\\';
    Out += C;
    Out += '\'';
    return;
  }
  case NodeKind::BoolLiteralExpr:
    Out += cast<BoolLiteralExpr>(E)->Value ? "true" : "false";
    return;
  case NodeKind::NullLiteralExpr:
    Out += "null";
    return;
  case NodeKind::NameExpr:
    Out += cast<NameExpr>(E)->Name;
    return;
  case NodeKind::FieldAccessExpr: {
    const auto *F = cast<FieldAccessExpr>(E);
    EmitOperand(F->Base);
    Out += '.';
    Out += F->Name;
    return;
  }
  case NodeKind::MethodCallExpr: {
    const auto *Call = cast<MethodCallExpr>(E);
    if (Call->Base) {
      EmitOperand(Call->Base);
      Out += '.';
    }
    Out += Call->Name + "(";
    for (std::size_t I = 0; I < Call->Args.size(); ++I) {
      if (I != 0)
        Out += ", ";
      emitExpr(Call->Args[I]);
    }
    Out += ')';
    return;
  }
  case NodeKind::NewObjectExpr: {
    const auto *New = cast<NewObjectExpr>(E);
    Out += "new " + New->Type.Name + "(";
    for (std::size_t I = 0; I < New->Args.size(); ++I) {
      if (I != 0)
        Out += ", ";
      emitExpr(New->Args[I]);
    }
    Out += ')';
    return;
  }
  case NodeKind::NewArrayExpr: {
    const auto *New = cast<NewArrayExpr>(E);
    Out += "new " + New->ElemType.Name;
    unsigned Printed = 0;
    for (const Expr *Dim : New->DimExprs) {
      Out += '[';
      emitExpr(Dim);
      Out += ']';
      ++Printed;
    }
    for (; Printed < New->ElemType.ArrayDims; ++Printed)
      Out += "[]";
    if (New->Init) {
      Out += ' ';
      emitExpr(New->Init);
    }
    return;
  }
  case NodeKind::ArrayInitExpr: {
    const auto *Init = cast<ArrayInitExpr>(E);
    Out += "{ ";
    for (std::size_t I = 0; I < Init->Elements.size(); ++I) {
      if (I != 0)
        Out += ", ";
      emitExpr(Init->Elements[I]);
    }
    Out += " }";
    return;
  }
  case NodeKind::ArrayAccessExpr: {
    const auto *Access = cast<ArrayAccessExpr>(E);
    EmitOperand(Access->Base);
    Out += '[';
    emitExpr(Access->Index);
    Out += ']';
    return;
  }
  case NodeKind::AssignExpr: {
    const auto *Assign = cast<AssignExpr>(E);
    emitExpr(Assign->Lhs);
    switch (Assign->Op) {
    case AssignOp::Assign:
      Out += " = ";
      break;
    case AssignOp::AddAssign:
      Out += " += ";
      break;
    case AssignOp::SubAssign:
      Out += " -= ";
      break;
    }
    emitExpr(Assign->Rhs);
    return;
  }
  case NodeKind::BinaryExpr: {
    const auto *Bin = cast<BinaryExpr>(E);
    EmitOperand(Bin->Lhs);
    Out += ' ';
    Out += binaryOpSpelling(Bin->Op);
    Out += ' ';
    EmitOperand(Bin->Rhs);
    return;
  }
  case NodeKind::UnaryExpr: {
    const auto *Un = cast<UnaryExpr>(E);
    switch (Un->Op) {
    case UnaryOp::Neg:
      Out += '-';
      break;
    case UnaryOp::Not:
      Out += '!';
      break;
    case UnaryOp::BitNot:
      Out += '~';
      break;
    case UnaryOp::PreInc:
      Out += "++";
      break;
    case UnaryOp::PreDec:
      Out += "--";
      break;
    }
    EmitOperand(Un->Operand);
    return;
  }
  case NodeKind::CastExpr: {
    const auto *Cast = cast<CastExpr>(E);
    Out += '(' + Cast->Type.str() + ") ";
    EmitOperand(Cast->Operand);
    return;
  }
  case NodeKind::ConditionalExpr: {
    const auto *Cond = cast<ConditionalExpr>(E);
    EmitOperand(Cond->Cond);
    Out += " ? ";
    EmitOperand(Cond->TrueExpr);
    Out += " : ";
    EmitOperand(Cond->FalseExpr);
    return;
  }
  case NodeKind::ThisExpr:
    Out += "this";
    return;
  case NodeKind::InstanceofExpr: {
    const auto *Inst = cast<InstanceofExpr>(E);
    EmitOperand(Inst->Operand);
    Out += " instanceof " + Inst->Type.str();
    return;
  }
  default:
    assert(false && "not an expression kind");
  }
}
