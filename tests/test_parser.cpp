//===- tests/test_parser.cpp - Java parser unit tests ----------------------===//

#include "AstPrinter.h"
#include "javaast/Parser.h"

#include "support/Casting.h"

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
  return P;
}

std::unique_ptr<Parsed> parseClean(std::string_view Source) {
  auto P = parse(Source);
  EXPECT_FALSE(P->Diags.hasErrors())
      << (P->Diags.all().empty() ? "" : P->Diags.all().front().str());
  return P;
}

/// Extracts the single statement list of the single method of the single
/// class.
const std::vector<Stmt *> &bodyOf(const Parsed &P) {
  EXPECT_EQ(P.Unit->Types.size(), 1u);
  EXPECT_GE(P.Unit->Types[0]->Methods.size(), 1u);
  return P.Unit->Types[0]->Methods[0]->Body->Stmts;
}

std::string wrap(const std::string &Stmts) {
  return "class T { void m() { " + Stmts + " } }";
}

} // namespace

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

TEST(Parser, PackageAndImports) {
  auto P = parseClean("package com.example.app;\n"
                      "import javax.crypto.Cipher;\n"
                      "import java.util.*;\n"
                      "import static java.lang.Math.max;\n"
                      "class A {}");
  EXPECT_EQ(P->Unit->PackageName, "com.example.app");
  ASSERT_EQ(P->Unit->Imports.size(), 3u);
  EXPECT_EQ(P->Unit->Imports[0], "javax.crypto.Cipher");
  EXPECT_EQ(P->Unit->Imports[1], "java.util.*");
  EXPECT_EQ(P->Unit->Imports[2], "java.lang.Math.max");
}

TEST(Parser, ClassModifiersAndHeritage) {
  auto P = parseClean(
      "public final class A extends Base implements I1, I2 {}");
  ASSERT_EQ(P->Unit->Types.size(), 1u);
  const ClassDecl *A = P->Unit->Types[0];
  EXPECT_TRUE(A->Modifiers & ModPublic);
  EXPECT_TRUE(A->Modifiers & ModFinal);
  EXPECT_EQ(A->SuperClass, "Base");
  ASSERT_EQ(A->Interfaces.size(), 2u);
  EXPECT_EQ(A->Interfaces[0], "I1");
}

TEST(Parser, InterfaceDecl) {
  auto P = parseClean("public interface Listener { void onEvent(int code); }");
  ASSERT_EQ(P->Unit->Types.size(), 1u);
  EXPECT_TRUE(P->Unit->Types[0]->IsInterface);
  ASSERT_EQ(P->Unit->Types[0]->Methods.size(), 1u);
  EXPECT_EQ(P->Unit->Types[0]->Methods[0]->Body, nullptr);
}

TEST(Parser, FieldsWithInitializers) {
  auto P = parseClean("class A {\n"
                      "  private static final String ALGO = \"AES\";\n"
                      "  int x = 1, y = 2;\n"
                      "  byte[] buf;\n"
                      "}");
  const ClassDecl *A = P->Unit->Types[0];
  ASSERT_EQ(A->Fields.size(), 4u);
  EXPECT_EQ(A->Fields[0]->Name, "ALGO");
  EXPECT_TRUE(A->Fields[0]->Modifiers & ModStatic);
  ASSERT_NE(A->Fields[0]->Init, nullptr);
  EXPECT_TRUE(isa<StringLiteralExpr>(A->Fields[0]->Init));
  EXPECT_EQ(A->Fields[1]->Name, "x");
  EXPECT_EQ(A->Fields[2]->Name, "y");
  EXPECT_EQ(A->Fields[3]->Type.ArrayDims, 1u);
}

TEST(Parser, MethodsAndParams) {
  auto P = parseClean(
      "class A { protected byte[] run(String s, byte[] data) throws "
      "Exception { return data; } }");
  const MethodDecl *M = P->Unit->Types[0]->Methods[0];
  EXPECT_EQ(M->Name, "run");
  EXPECT_FALSE(M->IsConstructor);
  EXPECT_EQ(M->ReturnType.str(), "byte[]");
  ASSERT_EQ(M->Params.size(), 2u);
  EXPECT_EQ(M->Params[0].Type.Name, "String");
  EXPECT_EQ(M->Params[1].Type.ArrayDims, 1u);
  ASSERT_EQ(M->Throws.size(), 1u);
  EXPECT_EQ(M->Throws[0].Name, "Exception");
}

TEST(Parser, Constructor) {
  auto P = parseClean("class A { A(int x) { this.x = x; } int x; }");
  const MethodDecl *M = P->Unit->Types[0]->Methods[0];
  EXPECT_TRUE(M->IsConstructor);
  EXPECT_EQ(M->Name, "A");
}

TEST(Parser, NestedClass) {
  auto P = parseClean("class A { class B { int y; } int x; }");
  ASSERT_EQ(P->Unit->Types[0]->NestedClasses.size(), 1u);
  EXPECT_EQ(P->Unit->Types[0]->NestedClasses[0]->Name, "B");
}

TEST(Parser, AnnotationsSkipped) {
  auto P = parseClean("@SuppressWarnings(\"all\")\n"
                      "class A { @Override public void m(@Nullable String s) "
                      "{ } }");
  EXPECT_EQ(P->Unit->Types.size(), 1u);
  EXPECT_EQ(P->Unit->Types[0]->Methods.size(), 1u);
}

TEST(Parser, GenericsDiscarded) {
  auto P = parseClean(
      "class A { Map<String, List<Integer>> cache; "
      "List<String> names() { return null; } }");
  const ClassDecl *A = P->Unit->Types[0];
  ASSERT_EQ(A->Fields.size(), 1u);
  EXPECT_EQ(A->Fields[0]->Type.Name, "Map");
  EXPECT_EQ(A->Methods[0]->ReturnType.Name, "List");
}

TEST(Parser, StaticInitializerBecomesSyntheticMethod) {
  auto P = parseClean("class A { static { setup(); } }");
  ASSERT_EQ(P->Unit->Types[0]->Methods.size(), 1u);
  EXPECT_EQ(P->Unit->Types[0]->Methods[0]->Name.rfind("$init", 0), 0u);
}

TEST(Parser, VarargsParam) {
  auto P = parseClean("class A { void log(String fmt, Object... args) {} }");
  ASSERT_EQ(P->Unit->Types[0]->Methods[0]->Params.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

TEST(Parser, LocalVarDeclForms) {
  auto P = parseClean(wrap("int a; int b = 2; byte[] c = {1, 2}; "
                           "String d = \"x\", e = \"y\";"));
  const auto &Stmts = bodyOf(*P);
  // d,e split into a block of two declarations.
  ASSERT_EQ(Stmts.size(), 4u);
  EXPECT_TRUE(isa<LocalVarDeclStmt>(Stmts[0]));
  EXPECT_TRUE(isa<LocalVarDeclStmt>(Stmts[1]));
  const auto *C = cast<LocalVarDeclStmt>(Stmts[2]);
  EXPECT_EQ(C->Type.ArrayDims, 1u);
  EXPECT_TRUE(isa<ArrayInitExpr>(C->Init));
  EXPECT_TRUE(isa<Block>(Stmts[3]));
  EXPECT_EQ(cast<Block>(Stmts[3])->Stmts.size(), 2u);
}

TEST(Parser, IfElseChain) {
  auto P = parseClean(wrap("if (a) x = 1; else if (b) x = 2; else x = 3;"));
  const auto *If = cast<IfStmt>(bodyOf(*P)[0]);
  ASSERT_NE(If->Else, nullptr);
  EXPECT_TRUE(isa<IfStmt>(If->Else));
}

TEST(Parser, WhileAndDoWhile) {
  auto P = parseClean(wrap("while (x > 0) x = x - 1; do { y(); } while (b);"));
  EXPECT_TRUE(isa<WhileStmt>(bodyOf(*P)[0]));
  EXPECT_TRUE(isa<DoStmt>(bodyOf(*P)[1]));
}

TEST(Parser, ClassicFor) {
  auto P = parseClean(wrap("for (int i = 0; i < 10; i++) total = total + i;"));
  const auto *For = cast<ForStmt>(bodyOf(*P)[0]);
  EXPECT_NE(For->Init, nullptr);
  EXPECT_NE(For->Cond, nullptr);
  EXPECT_NE(For->Update, nullptr);
}

TEST(Parser, ForWithEmptyHeader) {
  auto P = parseClean(wrap("for (;;) { break; }"));
  const auto *For = cast<ForStmt>(bodyOf(*P)[0]);
  EXPECT_EQ(For->Init, nullptr);
  EXPECT_EQ(For->Cond, nullptr);
  EXPECT_EQ(For->Update, nullptr);
}

TEST(Parser, EnhancedForDesugarsToDeclPlusLoop) {
  auto P = parseClean(wrap("for (String s : names) use(s);"));
  const auto *Lowered = cast<Block>(bodyOf(*P)[0]);
  ASSERT_EQ(Lowered->Stmts.size(), 2u);
  const auto *Decl = cast<LocalVarDeclStmt>(Lowered->Stmts[0]);
  EXPECT_EQ(Decl->Name, "s");
  EXPECT_TRUE(isa<MethodCallExpr>(Decl->Init));
  EXPECT_TRUE(isa<WhileStmt>(Lowered->Stmts[1]));
}

TEST(Parser, TryCatchFinally) {
  auto P = parseClean(wrap("try { risky(); } catch (IOException e) { a(); } "
                           "catch (RuntimeException | Error e2) { b(); } "
                           "finally { c(); }"));
  const auto *Try = cast<TryStmt>(bodyOf(*P)[0]);
  ASSERT_EQ(Try->Catches.size(), 2u);
  EXPECT_EQ(Try->Catches[0].Types[0].Name, "IOException");
  EXPECT_EQ(Try->Catches[1].Types.size(), 2u);
  EXPECT_NE(Try->Finally, nullptr);
}

TEST(Parser, TryWithResources) {
  auto P = parseClean(
      wrap("try (InputStream in = open()) { read(in); } catch (Exception e) "
           "{ }"));
  const auto *Try = cast<TryStmt>(bodyOf(*P)[0]);
  // The resource declaration is hoisted into the body block.
  ASSERT_GE(Try->Body->Stmts.size(), 2u);
  EXPECT_TRUE(isa<LocalVarDeclStmt>(Try->Body->Stmts[0]));
}

TEST(Parser, SwitchLowersToIfChain) {
  auto P = parseClean(wrap("switch (mode) { case 1: a(); break; case 2: b(); "
                           "break; default: c(); }"));
  const auto *Lowered = cast<Block>(bodyOf(*P)[0]);
  ASSERT_EQ(Lowered->Stmts.size(), 2u);
  const auto *Chain = cast<IfStmt>(Lowered->Stmts[1]);
  ASSERT_NE(Chain->Else, nullptr);
  EXPECT_TRUE(isa<IfStmt>(Chain->Else));
}

TEST(Parser, SynchronizedStatement) {
  auto P = parseClean(wrap("synchronized (lock) { counter = counter + 1; }"));
  EXPECT_TRUE(isa<Block>(bodyOf(*P)[0]));
}

TEST(Parser, ReturnThrowBreakContinue) {
  auto P = parseClean(wrap(
      "if (a) return; if (b) return x; if (c) throw new Error(); "
      "while (d) { if (e) break; continue; }"));
  EXPECT_EQ(bodyOf(*P).size(), 4u);
}

TEST(Parser, LabeledBreakAccepted) {
  auto P = parseClean(wrap("while (a) { break out; }"));
  EXPECT_FALSE(P->Diags.hasErrors());
}

TEST(Parser, LabeledStatementSkipsLabel) {
  auto P = parseClean(wrap("outer: while (a) { inner: for (;;) { break inner; } continue outer; }"));
  EXPECT_TRUE(isa<WhileStmt>(bodyOf(*P)[0]));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

TEST(Parser, PrecedenceMulOverAdd) {
  auto P = parseClean(wrap("x = a + b * c;"));
  const auto *Assign =
      cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E);
  const auto *Add = cast<BinaryExpr>(Assign->Rhs);
  EXPECT_EQ(Add->Op, BinaryOp::Add);
  EXPECT_EQ(cast<BinaryExpr>(Add->Rhs)->Op, BinaryOp::Mul);
}

TEST(Parser, PrecedenceCompareOverLogical) {
  auto P = parseClean(wrap("x = a < b && c > d || e == f;"));
  const auto *Assign = cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E);
  EXPECT_EQ(cast<BinaryExpr>(Assign->Rhs)->Op, BinaryOp::Or);
}

TEST(Parser, ParensOverridePrecedence) {
  auto P = parseClean(wrap("x = (a + b) * c;"));
  const auto *Assign = cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E);
  EXPECT_EQ(cast<BinaryExpr>(Assign->Rhs)->Op, BinaryOp::Mul);
}

TEST(Parser, QualifiedStaticCall) {
  auto P = parseClean(wrap("Cipher c = Cipher.getInstance(\"AES\");"));
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  const auto *Call = cast<MethodCallExpr>(Decl->Init);
  EXPECT_EQ(Call->Name, "getInstance");
  EXPECT_TRUE(isa<NameExpr>(Call->Base));
  ASSERT_EQ(Call->Args.size(), 1u);
  EXPECT_TRUE(isa<StringLiteralExpr>(Call->Args[0]));
}

TEST(Parser, ChainedCalls) {
  auto P = parseClean(wrap("String s = b.append(\"x\").append(y).toString();"));
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  const auto *ToString = cast<MethodCallExpr>(Decl->Init);
  EXPECT_EQ(ToString->Name, "toString");
  EXPECT_TRUE(isa<MethodCallExpr>(ToString->Base));
}

TEST(Parser, FieldAccessChain) {
  auto P = parseClean(wrap("int m = Cipher.ENCRYPT_MODE;"));
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  const auto *Access = cast<FieldAccessExpr>(Decl->Init);
  EXPECT_EQ(Access->Name, "ENCRYPT_MODE");
}

TEST(Parser, NewObjectAndArrays) {
  auto P = parseClean(wrap("Object o = new Foo(1, \"x\"); "
                           "byte[] b = new byte[16]; "
                           "int[] i = new int[] {1, 2, 3}; "
                           "byte[][] m = new byte[2][8];"));
  const auto *NewFoo =
      cast<NewObjectExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[0])->Init);
  EXPECT_EQ(NewFoo->Type.Name, "Foo");
  EXPECT_EQ(NewFoo->Args.size(), 2u);
  const auto *NewByte =
      cast<NewArrayExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[1])->Init);
  EXPECT_EQ(NewByte->DimExprs.size(), 1u);
  const auto *NewInt =
      cast<NewArrayExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[2])->Init);
  ASSERT_NE(NewInt->Init, nullptr);
  EXPECT_EQ(cast<ArrayInitExpr>(NewInt->Init)->Elements.size(), 3u);
  const auto *NewMatrix =
      cast<NewArrayExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[3])->Init);
  EXPECT_EQ(NewMatrix->DimExprs.size(), 2u);
}

TEST(Parser, CastVsParenExpr) {
  auto P = parseClean(wrap("x = (byte) v; y = (a) + b; z = (Cipher) o;"));
  const auto &Stmts = bodyOf(*P);
  EXPECT_TRUE(isa<CastExpr>(
      cast<AssignExpr>(cast<ExprStmt>(Stmts[0])->E)->Rhs));
  EXPECT_TRUE(isa<BinaryExpr>(
      cast<AssignExpr>(cast<ExprStmt>(Stmts[1])->E)->Rhs));
  EXPECT_TRUE(isa<CastExpr>(
      cast<AssignExpr>(cast<ExprStmt>(Stmts[2])->E)->Rhs));
}

TEST(Parser, ConditionalExpr) {
  auto P = parseClean(wrap("x = flag ? a : b;"));
  EXPECT_TRUE(isa<ConditionalExpr>(
      cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E)->Rhs));
}

TEST(Parser, UnaryOperators) {
  auto P = parseClean(wrap("x = -a; y = !b; z = ~c; i++; --j;"));
  EXPECT_EQ(bodyOf(*P).size(), 5u);
}

TEST(Parser, InstanceofExpr) {
  auto P = parseClean(wrap("boolean b = o instanceof Cipher;"));
  EXPECT_TRUE(isa<InstanceofExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[0])->Init));
}

TEST(Parser, ArrayAccessAndAssignment) {
  auto P = parseClean(wrap("arr[0] = arr[i + 1];"));
  const auto *Assign = cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E);
  EXPECT_TRUE(isa<ArrayAccessExpr>(Assign->Lhs));
  EXPECT_TRUE(isa<ArrayAccessExpr>(Assign->Rhs));
}

TEST(Parser, ThisAndSuperCalls) {
  auto P = parseClean("class A extends B { A() { super(); } "
                      "A(int x) { this(); this.y = x; } int y; }");
  EXPECT_EQ(P->Unit->Types[0]->Methods.size(), 2u);
}

TEST(Parser, StringConcatenation) {
  auto P = parseClean(wrap("String s = \"a\" + x + \"b\";"));
  EXPECT_TRUE(isa<BinaryExpr>(cast<LocalVarDeclStmt>(bodyOf(*P)[0])->Init));
}

TEST(Parser, AnonymousClassBodySkipped) {
  auto P = parseClean(wrap(
      "Runnable r = new Runnable() { public void run() { work(); } };"));
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  EXPECT_TRUE(isa<NewObjectExpr>(Decl->Init));
}

//===----------------------------------------------------------------------===//
// Error recovery (partial programs, Section 5.1)
//===----------------------------------------------------------------------===//

TEST(ParserRecovery, MissingSemicolonStillParsesRest) {
  auto P = parse("class A { void m() { int x = 1 int y = 2; } }");
  EXPECT_TRUE(P->Diags.hasErrors());
  EXPECT_EQ(P->Unit->Types.size(), 1u);
}

TEST(ParserRecovery, GarbageMemberSkipped) {
  auto P = parse("class A { ??? int ok; void m() { } }");
  EXPECT_TRUE(P->Diags.hasErrors());
  const ClassDecl *A = P->Unit->Types[0];
  EXPECT_EQ(A->Methods.size(), 1u);
}

TEST(ParserRecovery, UnclosedClassDoesNotLoopForever) {
  auto P = parse("class A { void m() { if (x) ");
  EXPECT_TRUE(P->Diags.hasErrors());
  EXPECT_EQ(P->Unit->Types.size(), 1u);
}

TEST(ParserRecovery, EmptyInputYieldsEmptyUnit) {
  auto P = parseClean("");
  EXPECT_TRUE(P->Unit->Types.empty());
}

TEST(ParserRecovery, TopLevelGarbage) {
  auto P = parse("what is this; class A {}");
  EXPECT_TRUE(P->Diags.hasErrors());
  ASSERT_EQ(P->Unit->Types.size(), 1u);
  EXPECT_EQ(P->Unit->Types[0]->Name, "A");
}

//===----------------------------------------------------------------------===//
// Modern Java constructs (lambdas, method refs, assert, literal syntax)
//===----------------------------------------------------------------------===//

TEST(ParserModern, AssertStatementLowered) {
  auto P = parseClean(wrap("assert x > 0; assert y != null : \"message\";"));
  EXPECT_EQ(bodyOf(*P).size(), 2u);
  EXPECT_TRUE(isa<Block>(bodyOf(*P)[0]));
}

TEST(ParserModern, NumericUnderscores) {
  auto P = parseClean(wrap("int big = 1_000_000; int hex = 0xFF_EC; "
                           "long l = 10_000L; int bin = 0b1010_1010;"));
  const auto *Big = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  EXPECT_EQ(cast<IntLiteralExpr>(Big->Init)->Spelling, "1_000_000");
}

TEST(ParserModern, SingleParamLambdaOpaque) {
  auto P = parseClean(wrap("Runnable r = x -> x.run();"));
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[0]);
  const auto *Name = dyn_cast<NameExpr>(Decl->Init);
  ASSERT_NE(Name, nullptr);
  EXPECT_EQ(Name->Name, "$lambda");
}

TEST(ParserModern, ParenLambdaFormsOpaque) {
  auto P = parseClean(wrap(
      "exec(() -> { work(); }); "
      "map(list, (a, b) -> a + b); "
      "Runnable r = (x) -> x;"));
  EXPECT_EQ(bodyOf(*P).size(), 3u);
}

TEST(ParserModern, MethodReferenceOpaque) {
  auto P = parseClean(wrap("use(String::valueOf); use(obj::toString); "
                           "use(ArrayList::new);"));
  EXPECT_EQ(bodyOf(*P).size(), 3u);
}

TEST(ParserModern, LambdaInsideCryptoCodeDoesNotBreakAnalysisShape) {
  auto P = parseClean(wrap(
      "byte[] out = runSafely(() -> cipher.doFinal(data)); "
      "Cipher c = Cipher.getInstance(\"AES\");"));
  // The crypto statement after the lambda still parses.
  const auto *Decl = cast<LocalVarDeclStmt>(bodyOf(*P)[1]);
  EXPECT_TRUE(isa<MethodCallExpr>(Decl->Init));
}

TEST(ParserModern, CastStillWorksDespiteLambdaLookahead) {
  // `(byte) v` must not be mistaken for a lambda parameter list.
  auto P = parseClean(wrap("x = (byte) v; y = (Foo) w;"));
  EXPECT_TRUE(isa<CastExpr>(
      cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[0])->E)->Rhs));
  EXPECT_TRUE(isa<CastExpr>(
      cast<AssignExpr>(cast<ExprStmt>(bodyOf(*P)[1])->E)->Rhs));
}

//===----------------------------------------------------------------------===//
// Arena lifetime: AstContext reset/reuse across files
//===----------------------------------------------------------------------===//

TEST(ParserArena, ResetReleasesNodesAndReusesSlabs) {
  const std::string Source = wrap(
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "c.init(Cipher.ENCRYPT_MODE, key); byte[] out = c.doFinal(data);");
  AstContext Ctx;
  DiagnosticsEngine FirstDiags;
  CompilationUnit *First = parseJava(Source, Ctx, FirstDiags);
  ASSERT_NE(First, nullptr);
  EXPECT_GT(Ctx.size(), 0u);
  EXPECT_GT(Ctx.arenaBytes(), 0u);
  std::string FirstPrinted = AstPrinter().print(First);

  Ctx.reset();
  EXPECT_EQ(Ctx.size(), 0u);
  EXPECT_EQ(Ctx.arenaBytes(), 0u);
  // Slabs are retained across reset, so capacity survives.
  EXPECT_GT(Ctx.arenaCapacity(), 0u);

  // Reparsing into the recycled arena yields a byte-identical tree.
  DiagnosticsEngine SecondDiags;
  CompilationUnit *Second = parseJava(Source, Ctx, SecondDiags);
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(AstPrinter().print(Second), FirstPrinted);
  EXPECT_FALSE(SecondDiags.hasErrors());
}

TEST(ParserArena, RepeatedReuseReachesSteadyStateCapacity) {
  // processChange recycles one AstContext across every file of a change;
  // after the first few cycles the arena must stop growing.
  const std::string Source = wrap(
      "for (int i = 0; i < n; i++) { sb.append(items[i]); } "
      "Mac m = Mac.getInstance(\"HmacSHA256\"); m.update(data);");
  AstContext Ctx;
  std::size_t CapacityAfterWarmup = 0;
  for (int Cycle = 0; Cycle < 10; ++Cycle) {
    Ctx.reset();
    DiagnosticsEngine Diags;
    ASSERT_NE(parseJava(Source, Ctx, Diags), nullptr) << "cycle " << Cycle;
    if (Cycle == 1)
      CapacityAfterWarmup = Ctx.arenaCapacity();
    else if (Cycle > 1)
      EXPECT_EQ(Ctx.arenaCapacity(), CapacityAfterWarmup)
          << "arena still growing at cycle " << Cycle;
  }
}

TEST(ParserArena, ReuseAcrossDifferentFilesKeepsTreesIndependent) {
  // The AST of file N must not depend on what file N-1 left in the arena.
  const std::string A = wrap("int x = 1; String s = \"alpha\";");
  const std::string B = wrap("Cipher c = Cipher.getInstance(\"DES\");");

  auto PrintFresh = [](const std::string &Source) {
    AstContext Fresh;
    DiagnosticsEngine Diags;
    CompilationUnit *Unit = parseJava(Source, Fresh, Diags);
    EXPECT_NE(Unit, nullptr);
    return Unit ? AstPrinter().print(Unit) : std::string();
  };
  const std::string WantA = PrintFresh(A);
  const std::string WantB = PrintFresh(B);

  AstContext Shared;
  for (int Round = 0; Round < 4; ++Round) {
    const std::string &Source = Round % 2 == 0 ? A : B;
    const std::string &Want = Round % 2 == 0 ? WantA : WantB;
    Shared.reset();
    DiagnosticsEngine Diags;
    CompilationUnit *Unit = parseJava(Source, Shared, Diags);
    ASSERT_NE(Unit, nullptr) << "round " << Round;
    EXPECT_EQ(AstPrinter().print(Unit), Want) << "round " << Round;
  }
}
