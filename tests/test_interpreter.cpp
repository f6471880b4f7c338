//===- tests/test_interpreter.cpp - Abstract interpreter tests -------------===//

#include "analysis/AbstractInterpreter.h"

#include "javaast/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

using namespace diffcode;
using namespace diffcode::analysis;

namespace {

AnalysisResult analyze(std::string_view Source,
                       AnalysisOptions Opts = AnalysisOptions()) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors())
      << (Diags.all().empty() ? "" : Diags.all().front().str());
  AbstractInterpreter Interp(apimodel::CryptoApiModel::javaCryptoApi(), Opts);
  return Interp.analyze(Unit);
}

/// All events of objects of \p Type, merged over executions.
std::vector<UsageEvent> eventsOfType(const AnalysisResult &Result,
                                     const std::string &Type) {
  std::vector<UsageEvent> Out;
  UsageLog Merged = Result.mergedLog();
  for (const auto &[ObjId, Events] : Merged)
    if (Result.Objects.get(ObjId).TypeName == Type)
      Out.insert(Out.end(), Events.begin(), Events.end());
  return Out;
}

/// Returns a copy of the first event whose signature starts with
/// \p SigPrefix (copy, so callers may pass a temporary vector).
std::optional<UsageEvent> findEvent(const std::vector<UsageEvent> &Events,
                                    std::string_view SigPrefix) {
  for (const UsageEvent &Event : Events)
    if (Event.MethodSig.rfind(SigPrefix, 0) == 0)
      return Event;
  return std::nullopt;
}

unsigned countObjectsOfType(const AnalysisResult &Result,
                            const std::string &Type) {
  unsigned N = 0;
  for (const AbstractObject &Obj : Result.Objects.all())
    if (Obj.TypeName == Type)
      ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Allocation sites and factory calls
//===----------------------------------------------------------------------===//

TEST(Interpreter, FactoryCallCreatesAbstractObject) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
  std::vector<UsageEvent> Events = eventsOfType(R, "Cipher");
  std::optional<UsageEvent> GetInstance = findEvent(Events, "Cipher.getInstance/1");
  ASSERT_TRUE(GetInstance.has_value());
  ASSERT_EQ(GetInstance->Args.size(), 1u);
  EXPECT_EQ(GetInstance->Args[0], AbstractValue::strConst("AES"));
}

TEST(Interpreter, ConstructorCreatesAbstractObject) {
  AnalysisResult R = analyze(
      "class A { void m(byte[] b) { "
      "IvParameterSpec iv = new IvParameterSpec(b); } }");
  EXPECT_EQ(countObjectsOfType(R, "IvParameterSpec"), 1u);
  std::optional<UsageEvent> Ctor = findEvent(eventsOfType(R, "IvParameterSpec"),
                                     "IvParameterSpec.<init>/1");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayTop());
}

TEST(Interpreter, SameSiteReusedAcrossForkedPaths) {
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { "
      "for (int i = 0; i < 3; i++) { "
      "Cipher c = Cipher.getInstance(\"AES\"); } } }");
  // One allocation site, even though the loop forks 0/1 iterations.
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
}

TEST(Interpreter, DistinctSitesAreDistinctObjects) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "Cipher a = Cipher.getInstance(\"AES\");\n"
      "Cipher b = Cipher.getInstance(\"DES\"); } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 2u);
}

//===----------------------------------------------------------------------===//
// Instance calls and argument tracking
//===----------------------------------------------------------------------===//

TEST(Interpreter, InstanceCallRecordedOnReceiver) {
  AnalysisResult R = analyze(
      "class A { void m(Key key) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.ENCRYPT_MODE, key); } }");
  std::vector<UsageEvent> Events = eventsOfType(R, "Cipher");
  std::optional<UsageEvent> Init = findEvent(Events, "Cipher.init/2");
  ASSERT_TRUE(Init.has_value());
  EXPECT_EQ(Init->Args[0], AbstractValue::intConst(1, "ENCRYPT_MODE"));
  EXPECT_EQ(Init->Args[1], AbstractValue::topObject("Key"));
}

TEST(Interpreter, EventAlsoRecordedOnObjectArguments) {
  // Cipher.init takes the IvParameterSpec as an argument, so the event
  // must appear in the IvParameterSpec object's usage set too
  // (Methods_t membership, Section 3.2).
  AnalysisResult R = analyze(
      "class A { void m(Key key, byte[] b) throws Exception { "
      "IvParameterSpec iv = new IvParameterSpec(b); "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "c.init(Cipher.ENCRYPT_MODE, key, iv); } }");
  std::optional<UsageEvent> InitOnIv =
      findEvent(eventsOfType(R, "IvParameterSpec"), "Cipher.init/3");
  EXPECT_TRUE(InitOnIv.has_value());
}

TEST(Interpreter, FieldHeldObjectsTrackUsage) {
  AnalysisResult R = analyze(
      "class A { Cipher enc; "
      "void setup(Key k) throws Exception { "
      "enc = Cipher.getInstance(\"AES\"); } "
      "void use(Key k) throws Exception { "
      "enc.init(Cipher.ENCRYPT_MODE, k); } }");
  // `use` is an entry too, but enc's allocation only happens in `setup`;
  // the getInstance event must exist.
  EXPECT_TRUE(findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance/1")
                  .has_value());
}

//===----------------------------------------------------------------------===//
// Base-type abstraction (Figure 3)
//===----------------------------------------------------------------------===//

TEST(Interpreter, StringConstantsFlowThroughLocals) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "String algo = \"AES/CBC\" + \"/PKCS5Padding\"; "
      "Cipher c = Cipher.getInstance(algo); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("AES/CBC/PKCS5Padding"));
}

TEST(Interpreter, StringConstantsFlowThroughFields) {
  AnalysisResult R = analyze(
      "class A { final String algorithm = \"AES\"; "
      "void m() throws Exception { "
      "Cipher c = Cipher.getInstance(algorithm); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("AES"));
}

TEST(Interpreter, ConstantGetBytesIsConstByteArray) {
  AnalysisResult R = analyze(
      "class A { void m() { "
      "IvParameterSpec iv = new IvParameterSpec(\"0123456789abcdef\""
      ".getBytes()); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "IvParameterSpec"), "IvParameterSpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayConst());
}

TEST(Interpreter, ParamDerivedBytesAreTop) {
  AnalysisResult R = analyze(
      "class A { void m(String iv) { "
      "byte[] raw = Hex.decodeHex(iv.toCharArray()); "
      "IvParameterSpec spec = new IvParameterSpec(raw); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "IvParameterSpec"), "IvParameterSpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayTop());
}

TEST(Interpreter, ByteArrayLiteralIsConst) {
  AnalysisResult R = analyze(
      "class A { void m() { "
      "byte[] key = {1, 2, 3, 4}; "
      "SecretKeySpec s = new SecretKeySpec(key, \"AES\"); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "SecretKeySpec"), "SecretKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayConst());
  EXPECT_EQ(Ctor->Args[1], AbstractValue::strConst("AES"));
}

TEST(Interpreter, NewByteArrayZeroFilledIsConst) {
  AnalysisResult R = analyze(
      "class A { void m() { "
      "byte[] iv = new byte[16]; "
      "IvParameterSpec s = new IvParameterSpec(iv); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "IvParameterSpec"), "IvParameterSpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayConst());
}

TEST(Interpreter, NextBytesRandomizesBuffer) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "byte[] iv = new byte[16]; "
      "SecureRandom r = SecureRandom.getInstance(\"SHA1PRNG\"); "
      "r.nextBytes(iv); "
      "IvParameterSpec s = new IvParameterSpec(iv); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "IvParameterSpec"), "IvParameterSpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayTop());
}

TEST(Interpreter, IntConstantArithmeticFolds) {
  AnalysisResult R = analyze(
      "class A { void m(char[] pw, byte[] salt) { "
      "int base = 500; "
      "PBEKeySpec s = new PBEKeySpec(pw, salt, base * 2, 128); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "PBEKeySpec"), "PBEKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[2], AbstractValue::intConst(1000));
}

TEST(Interpreter, ApiConstantsKeepSymbolicNames) {
  AnalysisResult R = analyze(
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.DECRYPT_MODE, k); } }");
  std::optional<UsageEvent> Init = findEvent(eventsOfType(R, "Cipher"), "Cipher.init");
  ASSERT_TRUE(Init.has_value());
  EXPECT_EQ(Init->Args[0].label(), "DECRYPT_MODE");
  EXPECT_EQ(Init->Args[0].intValue(), 2);
}

TEST(Interpreter, BranchDependentValueWidensAtJoinlessFork) {
  // The two branches fork into separate executions; each sees its own
  // constant.
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { "
      "String algo; "
      "if (f) { algo = \"AES\"; } else { algo = \"DES\"; } "
      "Cipher c = Cipher.getInstance(algo); } }");
  std::vector<UsageEvent> Events = eventsOfType(R, "Cipher");
  bool SawAes = false, SawDes = false;
  for (const UsageEvent &E : Events) {
    SawAes = SawAes || E.Args[0] == AbstractValue::strConst("AES");
    SawDes = SawDes || E.Args[0] == AbstractValue::strConst("DES");
  }
  EXPECT_TRUE(SawAes);
  EXPECT_TRUE(SawDes);
}

//===----------------------------------------------------------------------===//
// Interprocedural analysis
//===----------------------------------------------------------------------===//

TEST(Interpreter, HelperMethodInlined) {
  AnalysisResult R = analyze(
      "class A { "
      "void m(Key k) throws Exception { "
      "Cipher c = create(); c.init(Cipher.ENCRYPT_MODE, k); } "
      "private Cipher create() throws Exception { "
      "return Cipher.getInstance(\"AES\"); } }");
  std::vector<UsageEvent> Events = eventsOfType(R, "Cipher");
  EXPECT_TRUE(findEvent(Events, "Cipher.getInstance").has_value());
  EXPECT_TRUE(findEvent(Events, "Cipher.init").has_value());
}

TEST(Interpreter, ConstantsFlowThroughHelperArgs) {
  AnalysisResult R = analyze(
      "class A { "
      "void m() throws Exception { hash(\"SHA-256\"); } "
      "private void hash(String algo) throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(algo); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "MessageDigest"), "MessageDigest.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("SHA-256"));
}

TEST(Interpreter, RecursionTerminates) {
  AnalysisResult R = analyze(
      "class A { int f(int n) { if (n <= 0) return 0; return f(n - 1); } "
      "void m() throws Exception { int x = f(5); "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
}

TEST(Interpreter, ConstructorInlinedForProgramClass) {
  AnalysisResult R = analyze(
      "class Holder { Cipher c; "
      "Holder(String algo) throws Exception { "
      "c = Cipher.getInstance(algo); } } "
      "class Use { void m() throws Exception { "
      "Holder h = new Holder(\"DES\"); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("DES"));
}

TEST(Interpreter, EntryDiscoveryAnalyzesUncalledMethods) {
  AnalysisResult R = analyze(
      "class A { "
      "public void api1() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } "
      "public void api2() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(\"MD5\"); } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
  EXPECT_EQ(countObjectsOfType(R, "MessageDigest"), 1u);
}

TEST(Interpreter, StaticFieldsTracked) {
  AnalysisResult R = analyze(
      "class A { static final String ALGO = \"SHA-1\"; "
      "void m() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(A.ALGO); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "MessageDigest"), "MessageDigest.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("SHA-1"));
}

//===----------------------------------------------------------------------===//
// Executions and forking
//===----------------------------------------------------------------------===//

TEST(Interpreter, TryCatchForksExecutions) {
  AnalysisResult R = analyze(
      "class A { void m(Key k) throws Exception { "
      "try { Cipher c = Cipher.getInstance(\"AES\"); } "
      "catch (Exception e) { "
      "MessageDigest d = MessageDigest.getInstance(\"MD5\"); } } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
  EXPECT_EQ(countObjectsOfType(R, "MessageDigest"), 1u);
}

TEST(Interpreter, ReturnStopsExecution) {
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { "
      "if (f) { return; } "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  // The fall-through execution still reaches the allocation.
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
}

TEST(Interpreter, ForkCapBoundsExecutions) {
  std::string Body;
  for (int I = 0; I < 12; ++I)
    Body += "if (f) { x = x + 1; } ";
  AnalysisOptions Opts;
  Opts.MaxStatesPerEntry = 8;
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { int x = 0; " + Body +
          "Cipher c = Cipher.getInstance(\"AES\"); } }",
      Opts);
  EXPECT_LE(R.Executions.size(), 8u);
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
}

TEST(Interpreter, MergedLogDeduplicatesEvents) {
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { "
      "if (f) { helper(); } else { helper(); } "
      "Cipher c = Cipher.getInstance(\"AES\"); } "
      "void helper() { } }");
  UsageLog Merged = R.mergedLog();
  for (const auto &[ObjId, Events] : Merged)
    for (std::size_t I = 0; I < Events.size(); ++I)
      for (std::size_t J = I + 1; J < Events.size(); ++J)
        EXPECT_FALSE(Events[I] == Events[J]);
}

//===----------------------------------------------------------------------===//
// Ablation knobs
//===----------------------------------------------------------------------===//

TEST(Interpreter, AllTopAbstractionErasesConstants) {
  AnalysisOptions Opts;
  Opts.Abstraction = AnalysisOptions::BaseAbstraction::AllTop;
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }",
      Opts);
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strTop());
}

TEST(Interpreter, KeepAllConstantsKeepsByteElements) {
  AnalysisOptions Opts;
  Opts.Abstraction = AnalysisOptions::BaseAbstraction::KeepAllConstants;
  AnalysisResult R = analyze(
      "class A { void m() { "
      "byte[] key = {1, 2, 3}; "
      "SecretKeySpec s = new SecretKeySpec(key, \"AES\"); } }",
      Opts);
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "SecretKeySpec"), "SecretKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0].kind(), AVKind::IntArrayConst);
  EXPECT_EQ(Ctor->Args[0].label(), "[1,2,3]");
}

//===----------------------------------------------------------------------===//
// Robustness
//===----------------------------------------------------------------------===//

TEST(Interpreter, EmptyUnit) {
  AnalysisResult R = analyze("");
  EXPECT_TRUE(R.Executions.empty());
  EXPECT_EQ(R.Objects.size(), 0u);
}

TEST(Interpreter, ClassWithoutCrypto) {
  AnalysisResult R = analyze(
      "class Plain { int add(int a, int b) { return a + b; } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 0u);
}

TEST(Interpreter, FuelLimitTerminatesPathologicalInput) {
  std::string Nested = "int x = 0; ";
  for (int I = 0; I < 18; ++I)
    Nested += "while (x < 10) { ";
  Nested += "x = x + 1; ";
  for (int I = 0; I < 18; ++I)
    Nested += "} ";
  AnalysisOptions Opts;
  Opts.Fuel = 2000;
  AnalysisResult R =
      analyze("class A { void m() { " + Nested + " } }", Opts);
  SUCCEED(); // termination is the assertion
}

//===----------------------------------------------------------------------===//
// Precision: constant-branch pruning and JDK constant folding
//===----------------------------------------------------------------------===//

TEST(Interpreter, ConstantTrueBranchPrunesElse) {
  AnalysisResult R = analyze(
      "class A { static final boolean LEGACY = false; "
      "void m() throws Exception { "
      "if (LEGACY) { Cipher c = Cipher.getInstance(\"DES\"); } "
      "else { Cipher c = Cipher.getInstance(\"AES/GCM/NoPadding\"); } } }");
  std::vector<UsageEvent> Events = eventsOfType(R, "Cipher");
  // The dead DES branch is never analyzed.
  EXPECT_FALSE(findEvent(Events, "Cipher.getInstance").has_value()
                   ? findEvent(Events, "Cipher.getInstance")->Args[0] ==
                         AbstractValue::strConst("DES")
                   : false);
  bool SawGcm = false;
  for (const UsageEvent &E : Events)
    SawGcm = SawGcm || E.Args[0] == AbstractValue::strConst("AES/GCM/NoPadding");
  EXPECT_TRUE(SawGcm);
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 1u);
}

TEST(Interpreter, UnknownConditionStillForks) {
  AnalysisResult R = analyze(
      "class A { void m(boolean flag) throws Exception { "
      "if (flag) { Cipher c = Cipher.getInstance(\"AES\"); } "
      "else { Cipher c = Cipher.getInstance(\"DES\"); } } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 2u);
}

TEST(Interpreter, ConstantConditionalExprSelectsArm) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "String algo = 1 > 0 ? \"SHA-256\" : \"MD5\"; "
      "MessageDigest d = MessageDigest.getInstance(algo); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "MessageDigest"), "MessageDigest.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("SHA-256"));
}

TEST(Interpreter, SwitchStillForksAllArms) {
  // The lowered switch must not be constant-pruned to its first arm.
  AnalysisResult R = analyze(
      "class A { void m(int mode) throws Exception { "
      "switch (mode) { "
      "case 1: { Cipher a = Cipher.getInstance(\"AES\"); break; } "
      "case 2: { Cipher b = Cipher.getInstance(\"DES\"); break; } } } }");
  EXPECT_EQ(countObjectsOfType(R, "Cipher"), 2u);
}

TEST(Interpreter, IntegerParseIntFolds) {
  AnalysisResult R = analyze(
      "class A { void m(char[] pw, byte[] salt) { "
      "int iters = Integer.parseInt(\"20000\"); "
      "PBEKeySpec s = new PBEKeySpec(pw, salt, iters, 256); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "PBEKeySpec"), "PBEKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[2], AbstractValue::intConst(20000));
}

TEST(Interpreter, IntegerParseIntOfUnknownIsTop) {
  AnalysisResult R = analyze(
      "class A { void m(char[] pw, byte[] salt, String conf) { "
      "int iters = Integer.parseInt(conf); "
      "PBEKeySpec s = new PBEKeySpec(pw, salt, iters, 256); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "PBEKeySpec"), "PBEKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[2], AbstractValue::intTop());
}

TEST(Interpreter, MathMinMaxFold) {
  AnalysisResult R = analyze(
      "class A { void m(char[] pw, byte[] salt) { "
      "PBEKeySpec s = new PBEKeySpec(pw, salt, Math.max(1000, 100), "
      "Math.min(128, 256)); } }");
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "PBEKeySpec"), "PBEKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[2], AbstractValue::intConst(1000));
  EXPECT_EQ(Ctor->Args[3], AbstractValue::intConst(128));
}

TEST(Interpreter, StringValueOfFolds) {
  AnalysisResult R = analyze(
      "class A { void m() throws Exception { "
      "String algo = \"AES/CBC/\" + String.valueOf(5) + \"Padding\"; "
      "Cipher c = Cipher.getInstance(\"AES\" + \"/GCM/NoPadding\"); } }");
  std::optional<UsageEvent> E =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.getInstance");
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Args[0], AbstractValue::strConst("AES/GCM/NoPadding"));
}

//===----------------------------------------------------------------------===//
// Fork-cap soundness: folding surplus states must not lose events
//===----------------------------------------------------------------------===//

TEST(Interpreter, CapFoldingPreservesAllEvents) {
  // 6 two-way forks -> 64 paths, each reaching a distinct digest call;
  // with a cap of 4 states every call must still appear in the merged
  // log (surplus paths are joined, not dropped).
  std::string Body;
  for (int I = 0; I < 6; ++I)
    Body += "if (f" + std::to_string(I) +
            ") { MessageDigest d" + std::to_string(I) +
            " = MessageDigest.getInstance(\"ALGO" + std::to_string(I) +
            "\"); } ";
  std::string Params;
  for (int I = 0; I < 6; ++I)
    Params += (I ? ", " : "") + std::string("boolean f") + std::to_string(I);
  AnalysisOptions Opts;
  Opts.MaxStatesPerEntry = 4;
  AnalysisResult R = analyze(
      "class A { void m(" + Params + ") throws Exception { " + Body + "} }",
      Opts);
  EXPECT_LE(R.Executions.size(), 4u);

  std::set<std::string> SeenAlgos;
  for (const UsageEvent &E : eventsOfType(R, "MessageDigest"))
    if (!E.Args.empty() && E.Args[0].kind() == AVKind::StrConst)
      SeenAlgos.insert(E.Args[0].strValue());
  for (int I = 0; I < 6; ++I)
    EXPECT_TRUE(SeenAlgos.count("ALGO" + std::to_string(I))) << I;
}

TEST(Interpreter, JoinWidensDivergentValuesAfterCap) {
  // With cap 1, the branch-dependent constant must widen (join), not
  // arbitrarily pick one side.
  AnalysisOptions Opts;
  Opts.MaxStatesPerEntry = 1;
  AnalysisResult R = analyze(
      "class A { void m(boolean f) throws Exception { "
      "String algo = \"X\"; "
      "if (f) { algo = \"AES\"; } else { algo = \"DES\"; } "
      "Cipher c = Cipher.getInstance(algo); } }",
      Opts);
  bool SawTop = false, SawWrongConst = false;
  for (const UsageEvent &E : eventsOfType(R, "Cipher")) {
    if (E.MethodSig.rfind("Cipher.getInstance", 0) != 0)
      continue;
    SawTop = SawTop || E.Args[0] == AbstractValue::strTop();
    SawWrongConst =
        SawWrongConst || E.Args[0] == AbstractValue::strConst("X");
  }
  EXPECT_TRUE(SawTop || !SawWrongConst);
}

//===----------------------------------------------------------------------===//
// Name resolution: what each name denotes, pinned before any re-keying
//===----------------------------------------------------------------------===//

namespace {

/// The first argument of every getInstance call on \p Type, in object order.
std::vector<AbstractValue> getInstanceArgs(const AnalysisResult &Result,
                                           const std::string &Type) {
  std::vector<AbstractValue> Out;
  for (const UsageEvent &E : eventsOfType(Result, Type))
    if (E.MethodSig.rfind(Type + ".getInstance/", 0) == 0 && !E.Args.empty())
      Out.push_back(E.Args[0]);
  return Out;
}

} // namespace

TEST(InterpreterNames, LocalShadowsField) {
  AnalysisResult R = analyze(
      "class A { String algo = \"DES\"; "
      "void m() throws Exception { "
      "String algo = \"AES\"; "
      "Cipher a = Cipher.getInstance(algo); "
      "Cipher b = Cipher.getInstance(this.algo); } }");
  std::vector<AbstractValue> Args = getInstanceArgs(R, "Cipher");
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0], AbstractValue::strConst("AES"));
  EXPECT_EQ(Args[1], AbstractValue::strConst("DES"));
}

TEST(InterpreterNames, InheritedStaticIsKeyedByTheNamingClass) {
  // A static field declared in Base and reached through Sub is stored
  // under (Sub, ALGO); read as Base.ALGO it is (Base, ALGO), a different
  // slot.
  AnalysisResult R = analyze(
      "class Base { static String ALGO = \"DES\"; } "
      "class Sub extends Base { "
      "void m() throws Exception { "
      "ALGO = \"AES\"; "
      "Cipher a = Cipher.getInstance(ALGO); "
      "Cipher b = Cipher.getInstance(Sub.ALGO); "
      "Cipher c = Cipher.getInstance(Base.ALGO); "
      "Base.ALGO = \"RC4\"; "
      "Cipher d = Cipher.getInstance(ALGO); "
      "Cipher e = Cipher.getInstance(Base.ALGO); } }");
  std::vector<AbstractValue> Args = getInstanceArgs(R, "Cipher");
  ASSERT_EQ(Args.size(), 5u);
  EXPECT_EQ(Args[0], AbstractValue::strConst("AES"));
  EXPECT_EQ(Args[1], AbstractValue::strConst("AES"));
  EXPECT_EQ(Args[2], AbstractValue::strTop()); // (Base, ALGO) never set
  EXPECT_EQ(Args[3], AbstractValue::strConst("AES"));
  EXPECT_EQ(Args[4], AbstractValue::strConst("RC4"));
}

TEST(InterpreterNames, InlinedCalleeParamLeavesCallerLocalIntact) {
  AnalysisResult R = analyze(
      "class A { "
      "String pick(String algo) { algo = \"DES\"; return algo; } "
      "void m() throws Exception { "
      "String algo = \"AES\"; "
      "String other = pick(algo); "
      "Cipher a = Cipher.getInstance(algo); "
      "Cipher b = Cipher.getInstance(other); } }");
  std::vector<AbstractValue> Args = getInstanceArgs(R, "Cipher");
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0], AbstractValue::strConst("AES"));
  EXPECT_EQ(Args[1], AbstractValue::strConst("DES"));
}

TEST(InterpreterNames, CatchBindsTheCaughtTypesTopObject) {
  AnalysisResult R = analyze(
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "try { c.doFinal(); } "
      "catch (javax.crypto.BadPaddingException e) { c.init(2, e); } } }");
  std::optional<UsageEvent> Init =
      findEvent(eventsOfType(R, "Cipher"), "Cipher.init/2");
  ASSERT_TRUE(Init.has_value());
  EXPECT_EQ(Init->Args[1], AbstractValue::topObject("BadPaddingException"));
}

TEST(InterpreterNames, OneBranchLocalKeepsItsDeclaredTypeAfterTheCapJoin) {
  // `key` is declared only on the else path. With one state per entry the
  // fork joins right after the `if`, and the later assignment must still
  // coerce into byte[] (an unknown call result becomes Tbyte[], not T).
  AnalysisOptions Opts;
  Opts.MaxStatesPerEntry = 1;
  AnalysisResult R = analyze(
      "class A { void m(boolean f, String s) throws Exception { "
      "if (f) { int n = 1; } else { byte[] key = null; } "
      "key = Hex.decode(s); "
      "SecretKeySpec spec = new SecretKeySpec(key, \"AES\"); } }",
      Opts);
  std::optional<UsageEvent> Ctor =
      findEvent(eventsOfType(R, "SecretKeySpec"), "SecretKeySpec.<init>");
  ASSERT_TRUE(Ctor.has_value());
  EXPECT_EQ(Ctor->Args[0], AbstractValue::byteArrayTop());
}

//===----------------------------------------------------------------------===//
// Scaling: name lookups must not grow with the number of names
//===----------------------------------------------------------------------===//

TEST(InterpreterScaling, ManyLocalsAnalyzeInNearLinearTime) {
  // N distinct locals, each declared and then read. A linear-search
  // local map makes this quadratic: 10x the locals would take ~100x the
  // time; a hashed one takes ~10x. Min-of-3 over the interpretation only
  // (the parse is shared), bar 30x.
  auto Unit = [](unsigned N) {
    std::string Body;
    for (unsigned I = 0; I < N; ++I)
      Body += "int v" + std::to_string(I) + " = " + std::to_string(I) + "; ";
    for (unsigned I = 0; I < N; ++I)
      Body += "sink(v" + std::to_string(I) + "); ";
    return "class A { void m() { " + Body + "} }";
  };
  auto MinNanos = [&](unsigned N) {
    std::string Source = Unit(N);
    java::AstContext Ctx;
    java::DiagnosticsEngine Diags;
    java::CompilationUnit *CU = java::parseJava(Source, Ctx, Diags);
    EXPECT_NE(CU, nullptr);
    EXPECT_FALSE(Diags.hasErrors());
    AnalysisOptions Opts;
    Opts.Fuel = 10 * N + 100; // every statement runs
    AbstractInterpreter Interp(apimodel::CryptoApiModel::javaCryptoApi(),
                               Opts);
    long long Best = -1;
    for (int Run = 0; Run < 3; ++Run) {
      auto T0 = std::chrono::steady_clock::now();
      AnalysisResult R = Interp.analyze(CU);
      auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
      EXPECT_FALSE(R.Stats.FuelExhausted);
      // The body block, then 5 steps per local: its declaration and
      // initializer, then the call statement, the call and its argument.
      EXPECT_EQ(R.Stats.StepsUsed, 5ull * N + 1);
      Best = Best < 0 ? Ns : std::min(Best, static_cast<long long>(Ns));
    }
    return std::max(Best, 1ll);
  };
  long long Small = MinNanos(2000);
  long long Large = MinNanos(20000);
  EXPECT_LT(static_cast<double>(Large) / static_cast<double>(Small), 30.0)
      << "2k locals: " << Small << " ns, 20k locals: " << Large << " ns";
}

//===----------------------------------------------------------------------===//
// The per-object event cap is a budget
//===----------------------------------------------------------------------===//

namespace {

/// One Cipher receiving \p Updates distinct update calls.
std::string manyUpdates(unsigned Updates) {
  std::string Body = "Cipher c = Cipher.getInstance(\"AES\"); ";
  for (unsigned I = 0; I < Updates; ++I)
    Body += "c.update(b, " + std::to_string(I) + ", 1); ";
  return "class A { void m(byte[] b) throws Exception { " + Body + "} }";
}

} // namespace

TEST(InterpreterBudgets, EventCapTruncationIsABudgetHit) {
  // getInstance plus 255 updates fills the cap exactly: nothing dropped.
  AnalysisResult Full = analyze(manyUpdates(MaxEventsPerObject - 1));
  EXPECT_FALSE(Full.Stats.EventBudgetHit);
  EXPECT_FALSE(Full.Stats.anyBudgetHit());
  ASSERT_EQ(eventsOfType(Full, "Cipher").size(), MaxEventsPerObject);

  // Past it, events are dropped and the analysis says so.
  AnalysisResult Cut = analyze(manyUpdates(300));
  EXPECT_TRUE(Cut.Stats.EventBudgetHit);
  EXPECT_TRUE(Cut.Stats.anyBudgetHit());
  EXPECT_FALSE(Cut.Stats.FuelExhausted);
  EXPECT_FALSE(Cut.Stats.ObjectBudgetHit);
  EXPECT_EQ(eventsOfType(Cut, "Cipher").size(), MaxEventsPerObject);
}
