//===- javaast/Ast.h - Java subset AST -------------------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node hierarchy for the Java subset. Nodes are arena-allocated and
/// owned by an AstContext; the tree holds raw non-owning pointers. The
/// hierarchy uses kind-discriminated LLVM-style RTTI (see
/// support/Casting.h) — NodeKind ranges define the abstract bases.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_JAVAAST_AST_H
#define DIFFCODE_JAVAAST_AST_H

#include "javaast/SourceLocation.h"
#include "support/Arena.h"

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

namespace diffcode {
namespace java {

class Block;
class Expr;

/// Discriminator for every concrete AST node. The First_/Last_ markers
/// delimit the abstract base ranges used by classof.
enum class NodeKind : std::uint8_t {
  // Declarations.
  First_Decl,
  CompilationUnit = First_Decl,
  ClassDecl,
  FieldDecl,
  MethodDecl,
  Last_Decl = MethodDecl,

  // Statements.
  First_Stmt,
  BlockStmt = First_Stmt,
  LocalVarDeclStmt,
  ExprStmt,
  IfStmt,
  WhileStmt,
  DoStmt,
  ForStmt,
  ReturnStmt,
  TryStmt,
  ThrowStmt,
  BreakStmt,
  ContinueStmt,
  EmptyStmt,
  Last_Stmt = EmptyStmt,

  // Expressions.
  First_Expr,
  IntLiteralExpr = First_Expr,
  LongLiteralExpr,
  StringLiteralExpr,
  CharLiteralExpr,
  BoolLiteralExpr,
  NullLiteralExpr,
  NameExpr,
  FieldAccessExpr,
  MethodCallExpr,
  NewObjectExpr,
  NewArrayExpr,
  ArrayInitExpr,
  ArrayAccessExpr,
  AssignExpr,
  BinaryExpr,
  UnaryExpr,
  CastExpr,
  ConditionalExpr,
  ThisExpr,
  InstanceofExpr,
  Last_Expr = InstanceofExpr,
};

/// A (possibly qualified) type reference with array dimensions, e.g.
/// `javax.crypto.Cipher` or `byte[]`. Generic arguments are parsed and
/// discarded — the analysis never needs them.
struct TypeRef {
  std::string Name;       ///< Qualified name as written ("byte", "Cipher").
  unsigned ArrayDims = 0; ///< Number of `[]` suffixes.
  SourceLocation Loc;

  bool isArray() const { return ArrayDims != 0; }

  /// The unqualified base name ("Cipher" for "javax.crypto.Cipher").
  std::string baseName() const;

  /// Renders back to Java syntax ("byte[][]").
  std::string str() const;
};

/// Root of the node hierarchy.
class AstNode {
public:
  NodeKind getKind() const { return Kind; }
  SourceLocation getLoc() const { return Loc; }

  AstNode(const AstNode &) = delete;
  AstNode &operator=(const AstNode &) = delete;

protected:
  AstNode(NodeKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
  ~AstNode() = default;

private:
  NodeKind Kind;
  SourceLocation Loc;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions.
class Expr : public AstNode {
public:
  static bool classof(const AstNode *N) {
    return N->getKind() >= NodeKind::First_Expr &&
           N->getKind() <= NodeKind::Last_Expr;
  }

protected:
  using AstNode::AstNode;
};

/// Integer literal (decimal or hex); Value holds the decoded number.
class IntLiteralExpr final : public Expr {
public:
  IntLiteralExpr(SourceLocation Loc, std::int64_t Value, std::string Spelling)
      : Expr(NodeKind::IntLiteralExpr, Loc), Value(Value),
        Spelling(std::move(Spelling)) {}

  std::int64_t Value;
  std::string Spelling; ///< As written, for round-trip printing.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::IntLiteralExpr;
  }
};

/// Long literal (`42L`).
class LongLiteralExpr final : public Expr {
public:
  LongLiteralExpr(SourceLocation Loc, std::int64_t Value, std::string Spelling)
      : Expr(NodeKind::LongLiteralExpr, Loc), Value(Value),
        Spelling(std::move(Spelling)) {}

  std::int64_t Value;
  std::string Spelling;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::LongLiteralExpr;
  }
};

/// String literal with escapes already decoded.
class StringLiteralExpr final : public Expr {
public:
  StringLiteralExpr(SourceLocation Loc, std::string Value)
      : Expr(NodeKind::StringLiteralExpr, Loc), Value(std::move(Value)) {}

  std::string Value;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::StringLiteralExpr;
  }
};

/// Character literal.
class CharLiteralExpr final : public Expr {
public:
  CharLiteralExpr(SourceLocation Loc, char Value)
      : Expr(NodeKind::CharLiteralExpr, Loc), Value(Value) {}

  char Value;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::CharLiteralExpr;
  }
};

/// `true` / `false`.
class BoolLiteralExpr final : public Expr {
public:
  BoolLiteralExpr(SourceLocation Loc, bool Value)
      : Expr(NodeKind::BoolLiteralExpr, Loc), Value(Value) {}

  bool Value;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::BoolLiteralExpr;
  }
};

/// `null`.
class NullLiteralExpr final : public Expr {
public:
  explicit NullLiteralExpr(SourceLocation Loc)
      : Expr(NodeKind::NullLiteralExpr, Loc) {}

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::NullLiteralExpr;
  }
};

/// A bare identifier use: local, parameter, field, or a type name acting
/// as the receiver of a static call (resolved during analysis).
class NameExpr final : public Expr {
public:
  NameExpr(SourceLocation Loc, std::string Name)
      : Expr(NodeKind::NameExpr, Loc), Name(std::move(Name)) {}

  std::string Name;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::NameExpr;
  }
};

/// `Base.Name` — covers field reads and qualified constants such as
/// `Cipher.ENCRYPT_MODE`.
class FieldAccessExpr final : public Expr {
public:
  FieldAccessExpr(SourceLocation Loc, Expr *Base, std::string Name)
      : Expr(NodeKind::FieldAccessExpr, Loc), Base(Base),
        Name(std::move(Name)) {}

  Expr *Base; ///< Never null (use NameExpr for unqualified names).
  std::string Name;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::FieldAccessExpr;
  }
};

/// A method invocation `Base.Name(Args)`; Base is null for unqualified
/// calls (`helper(x)`).
class MethodCallExpr final : public Expr {
public:
  MethodCallExpr(SourceLocation Loc, Expr *Base, std::string Name,
                 std::vector<Expr *> Args)
      : Expr(NodeKind::MethodCallExpr, Loc), Base(Base), Name(std::move(Name)),
        Args(std::move(Args)) {}

  Expr *Base; ///< May be null.
  std::string Name;
  std::vector<Expr *> Args;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::MethodCallExpr;
  }
};

/// `new T(Args)`.
class NewObjectExpr final : public Expr {
public:
  NewObjectExpr(SourceLocation Loc, TypeRef Type, std::vector<Expr *> Args)
      : Expr(NodeKind::NewObjectExpr, Loc), Type(std::move(Type)),
        Args(std::move(Args)) {}

  TypeRef Type;
  std::vector<Expr *> Args;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::NewObjectExpr;
  }
};

/// `new T[Dim]...` or `new T[] { ... }`.
class NewArrayExpr final : public Expr {
public:
  NewArrayExpr(SourceLocation Loc, TypeRef ElemType,
               std::vector<Expr *> DimExprs, Expr *Init)
      : Expr(NodeKind::NewArrayExpr, Loc), ElemType(std::move(ElemType)),
        DimExprs(std::move(DimExprs)), Init(Init) {}

  TypeRef ElemType;
  std::vector<Expr *> DimExprs; ///< Explicit sizes; may be empty.
  Expr *Init;                   ///< ArrayInitExpr or null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::NewArrayExpr;
  }
};

/// `{ e0, e1, ... }` array initializer.
class ArrayInitExpr final : public Expr {
public:
  ArrayInitExpr(SourceLocation Loc, std::vector<Expr *> Elements)
      : Expr(NodeKind::ArrayInitExpr, Loc), Elements(std::move(Elements)) {}

  std::vector<Expr *> Elements;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ArrayInitExpr;
  }
};

/// `Base[Index]`.
class ArrayAccessExpr final : public Expr {
public:
  ArrayAccessExpr(SourceLocation Loc, Expr *Base, Expr *Index)
      : Expr(NodeKind::ArrayAccessExpr, Loc), Base(Base), Index(Index) {}

  Expr *Base;
  Expr *Index;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ArrayAccessExpr;
  }
};

/// Assignment operators the subset supports.
enum class AssignOp : std::uint8_t { Assign, AddAssign, SubAssign };

/// `Lhs = Rhs` (and compound variants).
class AssignExpr final : public Expr {
public:
  AssignExpr(SourceLocation Loc, AssignOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(NodeKind::AssignExpr, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}

  AssignOp Op;
  Expr *Lhs;
  Expr *Rhs;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::AssignExpr;
  }
};

/// Binary operators (arithmetic, comparison, logical, bitwise, shifts).
enum class BinaryOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
};

/// `Lhs op Rhs`.
class BinaryExpr final : public Expr {
public:
  BinaryExpr(SourceLocation Loc, BinaryOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(NodeKind::BinaryExpr, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}

  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::BinaryExpr;
  }
};

/// Unary operators. PreInc/PreDec also cover the postfix forms — the
/// analysis only cares that the operand becomes non-constant.
enum class UnaryOp : std::uint8_t { Neg, Not, BitNot, PreInc, PreDec };

/// `op Operand`.
class UnaryExpr final : public Expr {
public:
  UnaryExpr(SourceLocation Loc, UnaryOp Op, Expr *Operand)
      : Expr(NodeKind::UnaryExpr, Loc), Op(Op), Operand(Operand) {}

  UnaryOp Op;
  Expr *Operand;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::UnaryExpr;
  }
};

/// `(T) Operand`.
class CastExpr final : public Expr {
public:
  CastExpr(SourceLocation Loc, TypeRef Type, Expr *Operand)
      : Expr(NodeKind::CastExpr, Loc), Type(std::move(Type)),
        Operand(Operand) {}

  TypeRef Type;
  Expr *Operand;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::CastExpr;
  }
};

/// `Cond ? TrueExpr : FalseExpr`.
class ConditionalExpr final : public Expr {
public:
  ConditionalExpr(SourceLocation Loc, Expr *Cond, Expr *TrueExpr,
                  Expr *FalseExpr)
      : Expr(NodeKind::ConditionalExpr, Loc), Cond(Cond), TrueExpr(TrueExpr),
        FalseExpr(FalseExpr) {}

  Expr *Cond;
  Expr *TrueExpr;
  Expr *FalseExpr;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ConditionalExpr;
  }
};

/// `this`.
class ThisExpr final : public Expr {
public:
  explicit ThisExpr(SourceLocation Loc) : Expr(NodeKind::ThisExpr, Loc) {}

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ThisExpr;
  }
};

/// `Operand instanceof T`.
class InstanceofExpr final : public Expr {
public:
  InstanceofExpr(SourceLocation Loc, Expr *Operand, TypeRef Type)
      : Expr(NodeKind::InstanceofExpr, Loc), Operand(Operand),
        Type(std::move(Type)) {}

  Expr *Operand;
  TypeRef Type;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::InstanceofExpr;
  }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt : public AstNode {
public:
  static bool classof(const AstNode *N) {
    return N->getKind() >= NodeKind::First_Stmt &&
           N->getKind() <= NodeKind::Last_Stmt;
  }

protected:
  using AstNode::AstNode;
};

/// `{ ... }`.
class Block final : public Stmt {
public:
  Block(SourceLocation Loc, std::vector<Stmt *> Stmts)
      : Stmt(NodeKind::BlockStmt, Loc), Stmts(std::move(Stmts)) {}

  std::vector<Stmt *> Stmts;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::BlockStmt;
  }
};

/// `T x = init;` — one declarator per statement (the parser splits
/// multi-declarator statements).
class LocalVarDeclStmt final : public Stmt {
public:
  LocalVarDeclStmt(SourceLocation Loc, TypeRef Type, std::string Name,
                   Expr *Init)
      : Stmt(NodeKind::LocalVarDeclStmt, Loc), Type(std::move(Type)),
        Name(std::move(Name)), Init(Init) {}

  TypeRef Type;
  std::string Name;
  Expr *Init; ///< May be null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::LocalVarDeclStmt;
  }
};

/// An expression used as a statement.
class ExprStmt final : public Stmt {
public:
  ExprStmt(SourceLocation Loc, Expr *E)
      : Stmt(NodeKind::ExprStmt, Loc), E(E) {}

  Expr *E;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ExprStmt;
  }
};

/// `if (Cond) Then else Else`.
class IfStmt final : public Stmt {
public:
  IfStmt(SourceLocation Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(NodeKind::IfStmt, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< May be null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::IfStmt;
  }
};

/// `while (Cond) Body`.
class WhileStmt final : public Stmt {
public:
  WhileStmt(SourceLocation Loc, Expr *Cond, Stmt *Body)
      : Stmt(NodeKind::WhileStmt, Loc), Cond(Cond), Body(Body) {}

  Expr *Cond;
  Stmt *Body;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::WhileStmt;
  }
};

/// `do Body while (Cond);`.
class DoStmt final : public Stmt {
public:
  DoStmt(SourceLocation Loc, Stmt *Body, Expr *Cond)
      : Stmt(NodeKind::DoStmt, Loc), Body(Body), Cond(Cond) {}

  Stmt *Body;
  Expr *Cond;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::DoStmt;
  }
};

/// `for (Init; Cond; Update) Body`. Init is a statement (declaration or
/// expression statement) or null; Update is an expression or null.
class ForStmt final : public Stmt {
public:
  ForStmt(SourceLocation Loc, Stmt *Init, Expr *Cond, Expr *Update,
          Stmt *Body)
      : Stmt(NodeKind::ForStmt, Loc), Init(Init), Cond(Cond), Update(Update),
        Body(Body) {}

  Stmt *Init;
  Expr *Cond;
  Expr *Update;
  Stmt *Body;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ForStmt;
  }
};

/// `return E;` (E may be null).
class ReturnStmt final : public Stmt {
public:
  ReturnStmt(SourceLocation Loc, Expr *Value)
      : Stmt(NodeKind::ReturnStmt, Loc), Value(Value) {}

  Expr *Value; ///< May be null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ReturnStmt;
  }
};

/// One `catch (T name) { ... }` clause. Multi-catch (`A | B`) keeps all
/// alternative types.
struct CatchClause {
  std::vector<TypeRef> Types;
  std::string Name;
  Block *Body = nullptr;
};

/// `try { ... } catch ... finally { ... }`.
class TryStmt final : public Stmt {
public:
  TryStmt(SourceLocation Loc, Block *Body, std::vector<CatchClause> Catches,
          Block *Finally)
      : Stmt(NodeKind::TryStmt, Loc), Body(Body), Catches(std::move(Catches)),
        Finally(Finally) {}

  Block *Body;
  std::vector<CatchClause> Catches;
  Block *Finally; ///< May be null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::TryStmt;
  }
};

/// `throw E;`.
class ThrowStmt final : public Stmt {
public:
  ThrowStmt(SourceLocation Loc, Expr *Value)
      : Stmt(NodeKind::ThrowStmt, Loc), Value(Value) {}

  Expr *Value;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ThrowStmt;
  }
};

/// `break;`.
class BreakStmt final : public Stmt {
public:
  explicit BreakStmt(SourceLocation Loc) : Stmt(NodeKind::BreakStmt, Loc) {}

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::BreakStmt;
  }
};

/// `continue;`.
class ContinueStmt final : public Stmt {
public:
  explicit ContinueStmt(SourceLocation Loc)
      : Stmt(NodeKind::ContinueStmt, Loc) {}

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ContinueStmt;
  }
};

/// `;`.
class EmptyStmt final : public Stmt {
public:
  explicit EmptyStmt(SourceLocation Loc) : Stmt(NodeKind::EmptyStmt, Loc) {}

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::EmptyStmt;
  }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// Base class of declarations.
class Decl : public AstNode {
public:
  static bool classof(const AstNode *N) {
    return N->getKind() >= NodeKind::First_Decl &&
           N->getKind() <= NodeKind::Last_Decl;
  }

protected:
  using AstNode::AstNode;
};

/// Modifier bitmask (`public static final ...`).
enum Modifier : unsigned {
  ModNone = 0,
  ModPublic = 1u << 0,
  ModPrivate = 1u << 1,
  ModProtected = 1u << 2,
  ModStatic = 1u << 3,
  ModFinal = 1u << 4,
  ModAbstract = 1u << 5,
  ModSynchronized = 1u << 6,
};

/// A field declaration (one declarator).
class FieldDecl final : public Decl {
public:
  FieldDecl(SourceLocation Loc, unsigned Modifiers, TypeRef Type,
            std::string Name, Expr *Init)
      : Decl(NodeKind::FieldDecl, Loc), Modifiers(Modifiers),
        Type(std::move(Type)), Name(std::move(Name)), Init(Init) {}

  unsigned Modifiers;
  TypeRef Type;
  std::string Name;
  Expr *Init; ///< May be null.

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::FieldDecl;
  }
};

/// A formal parameter.
struct ParamDecl {
  TypeRef Type;
  std::string Name;
};

/// A method or constructor declaration.
class MethodDecl final : public Decl {
public:
  MethodDecl(SourceLocation Loc, unsigned Modifiers, TypeRef ReturnType,
             std::string Name, std::vector<ParamDecl> Params, Block *Body,
             bool IsConstructor)
      : Decl(NodeKind::MethodDecl, Loc), Modifiers(Modifiers),
        ReturnType(std::move(ReturnType)), Name(std::move(Name)),
        Params(std::move(Params)), Body(Body), IsConstructor(IsConstructor) {}

  unsigned Modifiers;
  TypeRef ReturnType; ///< "void" name for void; ignored for constructors.
  std::string Name;
  std::vector<ParamDecl> Params;
  Block *Body; ///< Null for abstract/interface methods.
  bool IsConstructor;
  std::vector<TypeRef> Throws;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::MethodDecl;
  }
};

/// A class or interface declaration. Interfaces are represented as classes
/// with the IsInterface flag; nested classes are supported.
class ClassDecl final : public Decl {
public:
  ClassDecl(SourceLocation Loc, unsigned Modifiers, std::string Name)
      : Decl(NodeKind::ClassDecl, Loc), Modifiers(Modifiers),
        Name(std::move(Name)) {}

  unsigned Modifiers;
  std::string Name;
  std::string SuperClass; ///< Empty when none.
  std::vector<std::string> Interfaces;
  bool IsInterface = false;
  std::vector<FieldDecl *> Fields;
  std::vector<MethodDecl *> Methods;
  std::vector<ClassDecl *> NestedClasses;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::ClassDecl;
  }
};

/// A whole source file: package, imports, top-level types.
class CompilationUnit final : public Decl {
public:
  explicit CompilationUnit(SourceLocation Loc)
      : Decl(NodeKind::CompilationUnit, Loc) {}

  std::string PackageName; ///< Empty for the default package.
  std::vector<std::string> Imports;
  std::vector<ClassDecl *> Types;

  static bool classof(const AstNode *N) {
    return N->getKind() == NodeKind::CompilationUnit;
  }
};

//===----------------------------------------------------------------------===//
// AstContext
//===----------------------------------------------------------------------===//

/// Arena that owns every node of one or more parsed units. Raw pointers in
/// the tree remain valid for the context's lifetime.
/// Arena owner for one or more parses. Nodes are placement-new'd into a
/// bump-pointer arena — one pointer bump per node instead of one malloc —
/// and freed wholesale. Types with non-trivial destructors (today: any
/// node holding std::string/std::vector members) register a typed
/// destructor callback; trivially destructible nodes cost nothing to tear
/// down. reset() destroys all nodes but retains the slab memory, so a
/// context reused across files (e.g. the old/new versions of one mined
/// change) reaches a steady state with no allocator traffic at all.
///
/// Lifetime rule: every AstNode, and every pointer into the tree, dies at
/// reset() or context destruction. Analysis results that must outlive the
/// tree (analysis::AnalysisResult) copy what they keep — they hold no
/// node pointers.
class AstContext {
public:
  AstContext() = default;
  AstContext(const AstContext &) = delete;
  AstContext &operator=(const AstContext &) = delete;
  ~AstContext() { destroyAll(); }

  /// Allocates and owns a node of type \p T.
  template <typename T, typename... Args> T *create(Args &&...A) {
    void *Mem = Alloc.allocate(sizeof(T), alignof(T));
    T *Ptr = new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Ptr, [](void *P) { static_cast<T *>(P)->~T(); }});
    ++NumNodes;
    return Ptr;
  }

  std::size_t size() const { return NumNodes; }

  /// Destroys every node and rewinds the arena, retaining slab memory for
  /// the next parse. All node pointers are invalidated.
  void reset() {
    destroyAll();
    Dtors.clear();
    NumNodes = 0;
    Alloc.reset();
  }

  /// Bytes of node storage handed out since construction / last reset().
  std::size_t arenaBytes() const { return Alloc.bytesRequested(); }

  /// Slab capacity currently retained by the arena.
  std::size_t arenaCapacity() const { return Alloc.bytesCapacity(); }

private:
  struct DtorEntry {
    void *Ptr;
    void (*Destroy)(void *);
  };

  void destroyAll() {
    // Reverse order: children were created before their parents, so
    // parents (whose vectors point at children) go first.
    for (auto It = Dtors.rbegin(); It != Dtors.rend(); ++It)
      It->Destroy(It->Ptr);
  }

  support::Arena Alloc;
  std::vector<DtorEntry> Dtors;
  std::size_t NumNodes = 0;
};

} // namespace java
} // namespace diffcode

#endif // DIFFCODE_JAVAAST_AST_H
