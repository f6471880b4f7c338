//===- tests/test_printer.cpp - AstPrinter round-trip tests ----------------===//

#include "AstPrinter.h"
#include "javaast/Parser.h"

#include "corpus/Scenario.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::java;

namespace {

std::string printOf(std::string_view Source, bool *HadErrors = nullptr) {
  AstContext Ctx;
  DiagnosticsEngine Diags;
  CompilationUnit *Unit = parseJava(Source, Ctx, Diags);
  if (HadErrors)
    *HadErrors = Diags.hasErrors();
  AstPrinter Printer;
  return Printer.print(Unit);
}

/// print(parse(print(parse(S)))) == print(parse(S)) — the printer output
/// is a fixed point of the frontend.
void expectRoundTrip(std::string_view Source) {
  bool Errors1 = false, Errors2 = false;
  std::string Once = printOf(Source, &Errors1);
  EXPECT_FALSE(Errors1) << Source;
  std::string Twice = printOf(Once, &Errors2);
  EXPECT_FALSE(Errors2) << Once;
  EXPECT_EQ(Once, Twice);
}

} // namespace

TEST(Printer, SimpleClass) {
  std::string Out = printOf("class A { int x = 1; }");
  EXPECT_NE(Out.find("class A {"), std::string::npos);
  EXPECT_NE(Out.find("int x = 1;"), std::string::npos);
}

TEST(Printer, EscapesStrings) {
  std::string Out =
      printOf("class A { String s = \"a\\\"b\\\\c\\n\"; }");
  EXPECT_NE(Out.find("\\\""), std::string::npos);
  EXPECT_NE(Out.find("\\\\"), std::string::npos);
  EXPECT_NE(Out.find("\\n"), std::string::npos);
}

TEST(Printer, RoundTripStatements) {
  expectRoundTrip(
      "class A { void m(int n) { int x = 0; "
      "if (x < n) { x = x + 1; } else { x = 0; } "
      "while (x > 0) x--; "
      "for (int i = 0; i < n; i++) use(i); "
      "do { x = x + 2; } while (x < 5); "
      "try { risky(); } catch (Exception e) { log(e); } finally { done(); } "
      "return; } }");
}

TEST(Printer, RoundTripExpressions) {
  expectRoundTrip(
      "class A { int m(int a, int b) { "
      "int c = a * (b + 2) - -a % 3; "
      "boolean d = a < b && b <= c || !(a == b); "
      "int[] arr = new int[] { 1, 2, 3 }; "
      "arr[0] = arr[1]; "
      "String s = \"x\" + a + helper(b, c); "
      "Object o = (Object) s; "
      "int e = d ? a : b; "
      "return c + e; } }");
}

TEST(Printer, RoundTripCryptoUsage) {
  expectRoundTrip(
      "import javax.crypto.Cipher;\n"
      "class A { Cipher enc; "
      "void setKey(Key key, String iv) throws Exception { "
      "byte[] ivBytes = Hex.decodeHex(iv.toCharArray()); "
      "IvParameterSpec ivSpec = new IvParameterSpec(ivBytes); "
      "enc = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "enc.init(Cipher.ENCRYPT_MODE, key, ivSpec); } }");
}

TEST(Printer, RoundTripFieldsAndModifiers) {
  expectRoundTrip("public final class A extends B implements C {\n"
                  "  private static final String ALGO = \"AES\";\n"
                  "  protected byte[] buf;\n"
                  "  public A(int n) { buf = new byte[n]; }\n"
                  "}");
}

TEST(Printer, RoundTripNestedClass) {
  expectRoundTrip("class A { int x; class Inner { int y; void m() { y = 1; } "
                  "} void n() { x = 2; } }");
}

TEST(Printer, PrintExprStandalone) {
  AstContext Ctx;
  DiagnosticsEngine Diags;
  CompilationUnit *Unit =
      parseJava("class A { int x = 1 + 2 * 3; }", Ctx, Diags);
  AstPrinter Printer;
  std::string Out = Printer.printExpr(Unit->Types[0]->Fields[0]->Init);
  EXPECT_EQ(Out, "1 + (2 * 3)");
}

//===----------------------------------------------------------------------===//
// Property: every generated scenario parses cleanly and round-trips.
//===----------------------------------------------------------------------===//

struct ScenarioCase {
  unsigned KindIndex;
  bool Secure;
  unsigned StyleSeed;
};

class ScenarioRoundTrip : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioRoundTrip, ParsesCleanAndRoundTrips) {
  ScenarioCase Case = GetParam();
  Rng R(Case.StyleSeed * 1337 + Case.KindIndex);
  corpus::ScenarioInstance Inst;
  Inst.Kind = static_cast<corpus::ScenarioKind>(Case.KindIndex);
  Inst.Details = corpus::drawDetails(Inst.Kind, R);
  Inst.Details.Secure = Case.Secure;
  Inst.StyleSeed = Case.StyleSeed * 7919 + 13;
  Inst.ClassName = "Sample";
  std::string Source = renderScenario(Inst, "com.example.test");

  bool Errors = false;
  std::string Printed = printOf(Source, &Errors);
  EXPECT_FALSE(Errors) << Source;
  EXPECT_FALSE(Printed.empty());
  expectRoundTrip(Source);
}

static std::vector<ScenarioCase> allScenarioCases() {
  std::vector<ScenarioCase> Cases;
  for (unsigned Kind = 0; Kind < corpus::NumScenarioKinds; ++Kind)
    for (bool Secure : {false, true})
      for (unsigned Seed : {1u, 2u, 3u})
        Cases.push_back({Kind, Secure, Seed});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ScenarioRoundTrip, ::testing::ValuesIn(allScenarioCases()),
    [](const ::testing::TestParamInfo<ScenarioCase> &Info) {
      std::string Name = corpus::scenarioName(
          static_cast<corpus::ScenarioKind>(Info.param.KindIndex));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + (Info.param.Secure ? "_secure_" : "_insecure_") +
             std::to_string(Info.param.StyleSeed);
    });
