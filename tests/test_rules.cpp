//===- tests/test_rules.cpp - Rule language & builtin rule tests -----------===//

#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"

#include "ReferenceRules.h"

#include "analysis/AbstractInterpreter.h"
#include "javaast/Parser.h"

#include <gtest/gtest.h>

#include <memory>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::rules;

namespace {

AnalysisResult analyze(std::string_view Source) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors())
      << (Diags.all().empty() ? "" : Diags.all().front().str());
  AbstractInterpreter Interp(apimodel::CryptoApiModel::javaCryptoApi());
  return Interp.analyze(Unit);
}

bool matchesRule(const char *RuleId, std::string_view Source,
                 ProjectMetadata Meta = ProjectMetadata()) {
  const Rule *R = findRule(RuleId);
  EXPECT_NE(R, nullptr) << RuleId;
  AnalysisResult Result = analyze(Source);
  UnitFacts Facts = UnitFacts::from(Result);
  return ruleMatches(*R, {Facts}, Meta);
}

/// A unit holding one \p Type object whose only execution logs \p Events.
AnalysisResult oneObject(std::vector<UsageEvent> Events,
                         const std::string &Type = "Cipher") {
  AnalysisResult Result;
  java::SourceLocation Site;
  Site.Line = 1;
  Site.Column = 1;
  UsageLog Log;
  Log[Result.Objects.getOrCreate(Site, Type)] = std::move(Events);
  Result.Executions.push_back(std::move(Log));
  return Result;
}

/// \p Events as UnitFacts::from digests them (unparsable ones dropped).
std::vector<FactEvent> digested(std::vector<UsageEvent> Events) {
  if (Events.empty())
    return {};
  UnitFacts Facts = UnitFacts::from(oneObject(std::move(Events)));
  return Facts.Objects.at(0).Merged;
}

/// P matches \p Event after digestion; the raw-event oracle must agree.
bool matches(const CallPattern &P, const UsageEvent &Event) {
  std::vector<FactEvent> Facts = digested({Event});
  bool Production = !Facts.empty() && P.matches(Facts[0]);
  EXPECT_EQ(Production, reference::matchesEvent(P, Event)) << Event.MethodSig;
  return Production;
}

/// \p Usage |= F after digestion; the raw-event oracle must agree.
bool holds(const ObjectFormula &F, const std::vector<UsageEvent> &Usage) {
  bool Production = F.eval(digested(Usage));
  EXPECT_EQ(Production, reference::eval(F, Usage));
  return Production;
}

/// A signature with no '.' and no '/': it matches no pattern.
const UsageEvent Unparsable{"getInstance", {}};

} // namespace

//===----------------------------------------------------------------------===//
// ArgConstraint unit tests
//===----------------------------------------------------------------------===//

TEST(ArgConstraint, StrEquals) {
  ArgConstraint C;
  C.K = ArgConstraint::Kind::StrEquals;
  C.Values = {"SHA-1", "SHA1"};
  EXPECT_TRUE(C.matches(AbstractValue::strConst("SHA-1")));
  EXPECT_TRUE(C.matches(AbstractValue::strConst("SHA1")));
  EXPECT_FALSE(C.matches(AbstractValue::strConst("SHA-256")));
  EXPECT_FALSE(C.matches(AbstractValue::strTop()));
  EXPECT_FALSE(C.matches(AbstractValue::intConst(1)));
}

TEST(ArgConstraint, StrNotEqualsTreatsUnknownAsViolating) {
  ArgConstraint C;
  C.K = ArgConstraint::Kind::StrNotEquals;
  C.Values = {"BC"};
  EXPECT_FALSE(C.matches(AbstractValue::strConst("BC")));
  EXPECT_TRUE(C.matches(AbstractValue::strConst("SunJCE")));
  EXPECT_TRUE(C.matches(AbstractValue::strTop()));
}

TEST(ArgConstraint, StrStartsWith) {
  ArgConstraint C;
  C.K = ArgConstraint::Kind::StrStartsWith;
  C.Values = {"AES/CBC"};
  EXPECT_TRUE(C.matches(AbstractValue::strConst("AES/CBC/PKCS5Padding")));
  EXPECT_TRUE(C.matches(AbstractValue::strConst("AES/CBC")));
  EXPECT_FALSE(C.matches(AbstractValue::strConst("AES/GCM/NoPadding")));
  EXPECT_FALSE(C.matches(AbstractValue::strTop()));
}

TEST(ArgConstraint, IntComparisons) {
  ArgConstraint Less;
  Less.K = ArgConstraint::Kind::IntLess;
  Less.IntBound = 1000;
  EXPECT_TRUE(Less.matches(AbstractValue::intConst(100)));
  EXPECT_FALSE(Less.matches(AbstractValue::intConst(1000)));
  EXPECT_FALSE(Less.matches(AbstractValue::intTop()));

  ArgConstraint Eq;
  Eq.K = ArgConstraint::Kind::IntEquals;
  Eq.IntBound = 16;
  EXPECT_TRUE(Eq.matches(AbstractValue::intConst(16)));
  EXPECT_FALSE(Eq.matches(AbstractValue::intConst(17)));
}

TEST(ArgConstraint, Constancy) {
  ArgConstraint Const;
  Const.K = ArgConstraint::Kind::IsConstant;
  EXPECT_TRUE(Const.matches(AbstractValue::byteArrayConst()));
  EXPECT_FALSE(Const.matches(AbstractValue::byteArrayTop()));

  ArgConstraint Top;
  Top.K = ArgConstraint::Kind::IsTop;
  EXPECT_FALSE(Top.matches(AbstractValue::byteArrayConst()));
  EXPECT_TRUE(Top.matches(AbstractValue::byteArrayTop()));
}

//===----------------------------------------------------------------------===//
// CallPattern
//===----------------------------------------------------------------------===//

TEST(CallPattern, MatchesSignatureParts) {
  CallPattern P;
  P.ClassName = "Cipher";
  P.MethodName = "getInstance";
  UsageEvent Match{"Cipher.getInstance/1", {AbstractValue::strConst("AES")}};
  UsageEvent WrongClass{"Mac.getInstance/1",
                        {AbstractValue::strConst("AES")}};
  UsageEvent WrongName{"Cipher.init/1", {AbstractValue::strConst("AES")}};
  EXPECT_TRUE(matches(P, Match));
  EXPECT_FALSE(matches(P, WrongClass));
  EXPECT_FALSE(matches(P, WrongName));
  EXPECT_FALSE(matches(P, Unparsable));
  EXPECT_FALSE(matches(CallPattern(), Unparsable)); // empty method, any class
}

TEST(CallPattern, ArityFilter) {
  CallPattern P;
  P.MethodName = "getInstance";
  P.Arity = 2;
  UsageEvent One{"Cipher.getInstance/1", {AbstractValue::strConst("AES")}};
  UsageEvent Two{"Cipher.getInstance/2",
                 {AbstractValue::strConst("AES"),
                  AbstractValue::strConst("BC")}};
  EXPECT_FALSE(matches(P, One));
  EXPECT_TRUE(matches(P, Two));
}

TEST(CallPattern, MissingArgumentFailsConstraint) {
  CallPattern P;
  P.MethodName = "init";
  ArgConstraint C;
  C.Index = 3;
  C.K = ArgConstraint::Kind::Any;
  P.Args = {C};
  UsageEvent TwoArgs{"Cipher.init/2",
                     {AbstractValue::intConst(1), AbstractValue::unknown()}};
  EXPECT_FALSE(matches(P, TwoArgs));
}

//===----------------------------------------------------------------------===//
// ObjectFormula
//===----------------------------------------------------------------------===//

TEST(ObjectFormula, ExistsAndNotExists) {
  CallPattern P;
  P.MethodName = "setSeed";
  std::vector<UsageEvent> WithSeed = {
      {"SecureRandom.setSeed/1", {AbstractValue::byteArrayConst()}}};
  std::vector<UsageEvent> WithoutSeed = {
      {"SecureRandom.nextBytes/1", {AbstractValue::byteArrayTop()}}};
  EXPECT_TRUE(holds(ObjectFormula::exists(P), WithSeed));
  EXPECT_FALSE(holds(ObjectFormula::exists(P), WithoutSeed));
  EXPECT_FALSE(holds(ObjectFormula::notExists(P), WithSeed));
  EXPECT_TRUE(holds(ObjectFormula::notExists(P), WithoutSeed));

  CallPattern Named;
  Named.MethodName = Unparsable.MethodSig;
  EXPECT_FALSE(holds(ObjectFormula::exists(Named), {Unparsable}));
  EXPECT_TRUE(holds(ObjectFormula::notExists(Named), {Unparsable}));
}

TEST(ObjectFormula, AndOrComposition) {
  CallPattern GetInstance;
  GetInstance.MethodName = "getInstance";
  CallPattern Init;
  Init.MethodName = "init";
  std::vector<UsageEvent> Both = {{"Cipher.getInstance/1", {}},
                                  {"Cipher.init/2", {}}};
  std::vector<UsageEvent> OnlyGet = {{"Cipher.getInstance/1", {}}};
  ObjectFormula AndF = ObjectFormula::all(
      {ObjectFormula::exists(GetInstance), ObjectFormula::exists(Init)});
  ObjectFormula OrF = ObjectFormula::any(
      {ObjectFormula::exists(GetInstance), ObjectFormula::exists(Init)});
  EXPECT_TRUE(holds(AndF, Both));
  EXPECT_FALSE(holds(AndF, OnlyGet));
  EXPECT_TRUE(holds(OrF, OnlyGet));
  EXPECT_FALSE(holds(OrF, {}));
}

//===----------------------------------------------------------------------===//
// Builtin rules against real Java snippets
//===----------------------------------------------------------------------===//

TEST(BuiltinRules, AllRulesPresent) {
  EXPECT_EQ(elicitedRules().size(), 13u);
  EXPECT_EQ(cryptoLintRules().size(), 5u);
  for (int I = 1; I <= 13; ++I)
    EXPECT_NE(findRule("R" + std::to_string(I)), nullptr) << I;
  for (int I = 1; I <= 5; ++I)
    EXPECT_NE(findRule("CL" + std::to_string(I)), nullptr) << I;
  EXPECT_EQ(findRule("R99"), nullptr);
}

TEST(BuiltinRules, R1_Sha1Digest) {
  EXPECT_TRUE(matchesRule("R1",
      "class A { void m() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(\"SHA-1\"); } }"));
  EXPECT_TRUE(matchesRule("R1",
      "class A { void m() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(\"MD5\"); } }"));
  EXPECT_FALSE(matchesRule("R1",
      "class A { void m() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(\"SHA-256\"); } }"));
}

TEST(BuiltinRules, R2_LowIterations) {
  EXPECT_TRUE(matchesRule("R2",
      "class A { void m(char[] p, byte[] s) { "
      "PBEKeySpec k = new PBEKeySpec(p, s, 100, 128); } }"));
  EXPECT_FALSE(matchesRule("R2",
      "class A { void m(char[] p, byte[] s) { "
      "PBEKeySpec k = new PBEKeySpec(p, s, 10000, 128); } }"));
}

TEST(BuiltinRules, R3_SecureRandomAlgorithm) {
  EXPECT_TRUE(matchesRule("R3",
      "class A { void m() { SecureRandom r = new SecureRandom(); } }"));
  EXPECT_TRUE(matchesRule("R3",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstance(\"NativePRNG\"); } }"));
  EXPECT_FALSE(matchesRule("R3",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstance(\"SHA1PRNG\"); } }"));
}

TEST(BuiltinRules, R4_GetInstanceStrong) {
  EXPECT_TRUE(matchesRule("R4",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstanceStrong(); } }"));
  EXPECT_FALSE(matchesRule("R4",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstance(\"SHA1PRNG\"); } }"));
}

TEST(BuiltinRules, R5_BouncyCastleProvider) {
  EXPECT_TRUE(matchesRule("R5",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); } }"));
  EXPECT_TRUE(matchesRule("R5",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\", "
      "\"SunJCE\"); } }"));
  EXPECT_FALSE(matchesRule("R5",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\", \"BC\"); } "
      "}"));
}

TEST(BuiltinRules, R6_AndroidPrngGuards) {
  const char *Source =
      "class A { void m() { SecureRandom r = new SecureRandom(); } }";
  ProjectMetadata Vulnerable;
  Vulnerable.IsAndroid = true;
  Vulnerable.MinSdkVersion = 17;
  Vulnerable.HasLinuxPrngFix = false;
  EXPECT_TRUE(matchesRule("R6", Source, Vulnerable));

  ProjectMetadata OldSdk = Vulnerable;
  OldSdk.MinSdkVersion = 14;
  EXPECT_FALSE(matchesRule("R6", Source, OldSdk));

  ProjectMetadata Patched = Vulnerable;
  Patched.HasLinuxPrngFix = true;
  EXPECT_FALSE(matchesRule("R6", Source, Patched));

  ProjectMetadata ServerSide = Vulnerable;
  ServerSide.IsAndroid = false;
  EXPECT_FALSE(matchesRule("R6", Source, ServerSide));
}

TEST(BuiltinRules, R7_EcbMode) {
  EXPECT_TRUE(matchesRule("R7",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }"));
  EXPECT_TRUE(matchesRule("R7",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/ECB/PKCS5Padding\"); } }"));
  EXPECT_FALSE(matchesRule("R7",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); } }"));
}

TEST(BuiltinRules, R8_Des) {
  EXPECT_TRUE(matchesRule("R8",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"DES\"); } }"));
  EXPECT_TRUE(matchesRule("R8",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"DES/CBC/PKCS5Padding\"); } }"));
  EXPECT_FALSE(matchesRule("R8",
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); } }"));
}

TEST(BuiltinRules, R9_StaticIv) {
  EXPECT_TRUE(matchesRule("R9",
      "class A { void m() { IvParameterSpec iv = new IvParameterSpec("
      "\"0123456789abcdef\".getBytes()); } }"));
  EXPECT_FALSE(matchesRule("R9",
      "class A { void m(byte[] raw) { "
      "IvParameterSpec iv = new IvParameterSpec(raw); } }"));
}

TEST(BuiltinRules, R10_StaticKey) {
  EXPECT_TRUE(matchesRule("R10",
      "class A { void m() { SecretKeySpec k = new SecretKeySpec("
      "\"sixteen-byte-key\".getBytes(), \"AES\"); } }"));
  EXPECT_FALSE(matchesRule("R10",
      "class A { void m(byte[] raw) { "
      "SecretKeySpec k = new SecretKeySpec(raw, \"AES\"); } }"));
}

TEST(BuiltinRules, R11_StaticSalt) {
  EXPECT_TRUE(matchesRule("R11",
      "class A { void m(char[] p) { byte[] salt = \"fixed\".getBytes(); "
      "PBEKeySpec k = new PBEKeySpec(p, salt, 10000, 128); } }"));
  EXPECT_FALSE(matchesRule("R11",
      "class A { void m(char[] p, byte[] salt) { "
      "PBEKeySpec k = new PBEKeySpec(p, salt, 10000, 128); } }"));
}

TEST(BuiltinRules, R12_StaticSeed) {
  EXPECT_TRUE(matchesRule("R12",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstance(\"SHA1PRNG\"); "
      "r.setSeed(\"notrandom\".getBytes()); } }"));
  EXPECT_FALSE(matchesRule("R12",
      "class A { void m() throws Exception { "
      "SecureRandom r = SecureRandom.getInstance(\"SHA1PRNG\"); "
      "r.setSeed(r.generateSeed(16)); } }"));
}

TEST(BuiltinRules, R13_MissingIntegrity) {
  const char *NoMac =
      "class A { void m(Key rsa, SecretKey k, byte[] d, byte[] ivb) throws "
      "Exception { "
      "Cipher w = Cipher.getInstance(\"RSA/ECB/PKCS1Padding\"); "
      "w.init(Cipher.WRAP_MODE, rsa); "
      "Cipher a = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "a.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(ivb)); } }";
  EXPECT_TRUE(matchesRule("R13", NoMac));

  const char *WithMac =
      "class A { void m(Key rsa, SecretKey k, byte[] d, byte[] ivb) throws "
      "Exception { "
      "Cipher w = Cipher.getInstance(\"RSA/ECB/PKCS1Padding\"); "
      "w.init(Cipher.WRAP_MODE, rsa); "
      "Cipher a = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "a.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(ivb)); "
      "Mac m2 = Mac.getInstance(\"HmacSHA256\"); m2.init(k); } }";
  EXPECT_FALSE(matchesRule("R13", WithMac));

  // AES-only code (no RSA) is not flagged.
  EXPECT_FALSE(matchesRule("R13",
      "class A { void m(SecretKey k, byte[] ivb) throws Exception { "
      "Cipher a = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "a.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(ivb)); } }"));
}

//===----------------------------------------------------------------------===//
// Applicability & CryptoChecker
//===----------------------------------------------------------------------===//

TEST(Rules, ApplicabilityRequiresTypePresence) {
  const Rule *R1 = findRule("R1");
  AnalysisResult NoDigest = analyze(
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  UnitFacts Facts = UnitFacts::from(NoDigest);
  EXPECT_FALSE(ruleApplicable(*R1, {Facts}));
  EXPECT_FALSE(ruleMatches(*R1, {Facts}));

  // An object whose only event matches no pattern is still present.
  AnalysisResult Unmatched = oneObject({Unparsable}, "MessageDigest");
  UnitFacts Present = UnitFacts::from(Unmatched);
  ASSERT_EQ(Present.Objects.size(), 1u);
  EXPECT_TRUE(Present.Objects[0].Merged.empty());
  EXPECT_TRUE(ruleApplicable(*R1, {Present}));
  EXPECT_FALSE(ruleMatches(*R1, {Present}));
  reference::Facts Raw = reference::Facts::from(Unmatched);
  EXPECT_TRUE(reference::applicable(*R1, {Raw}));
  EXPECT_FALSE(reference::matches(*R1, {Raw}));
}

TEST(Rules, CompositeApplicabilityNeedsPositiveClauses) {
  const Rule *R13 = findRule("R13");
  std::vector<std::string> Types = reference::applicableTypes(*R13);
  ASSERT_EQ(Types.size(), 1u); // Cipher twice dedupes; Mac is negated
  EXPECT_EQ(Types[0], "Cipher");
}

TEST(Rules, MultiUnitProjectsCombineFacts) {
  // The AES/CBC cipher and the RSA cipher live in different files; R13
  // must still fire across them.
  AnalysisResult UnitA = analyze(
      "class A { void m(SecretKey k, byte[] ivb) throws Exception { "
      "Cipher a = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
      "a.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(ivb)); } }");
  AnalysisResult UnitB = analyze(
      "class B { void m(Key rsa) throws Exception { "
      "Cipher w = Cipher.getInstance(\"RSA\"); "
      "w.init(Cipher.WRAP_MODE, rsa); } }");
  UnitFacts FactsA = UnitFacts::from(UnitA);
  UnitFacts FactsB = UnitFacts::from(UnitB);
  EXPECT_TRUE(ruleMatches(*findRule("R13"), {FactsA, FactsB}));
}

TEST(CryptoChecker, ReportsViolationSites) {
  AnalysisResult Result = analyze(
      "class A {\n"
      "  void m() throws Exception {\n"
      "    Cipher c = Cipher.getInstance(\"DES\");\n"
      "  }\n"
      "}");
  UnitFacts Facts = UnitFacts::from(Result);
  CryptoChecker Checker;
  ProjectReport Report = Checker.checkProject({Facts});
  EXPECT_TRUE(Report.anyMatch());
  bool FoundR8 = false;
  for (const RuleVerdict &V : Report.verdicts()) {
    if (Report.text(V.Rule) != "R8")
      continue;
    FoundR8 = true;
    EXPECT_TRUE(V.Matched);
    ASSERT_FALSE(V.Violations.empty());
    EXPECT_EQ(Report.text(V.Violations[0].Type), "Cipher");
    EXPECT_EQ(Report.text(V.Violations[0].Site), "l3");
  }
  EXPECT_TRUE(FoundR8);
}

TEST(CryptoChecker, CleanProjectPasses) {
  AnalysisResult Result = analyze(
      "class A { int add(int a, int b) { return a + b; } }");
  UnitFacts Facts = UnitFacts::from(Result);
  CryptoChecker Checker;
  ProjectReport Report = Checker.checkProject({Facts});
  EXPECT_FALSE(Report.anyMatch());
  for (const RuleVerdict &V : Report.verdicts())
    EXPECT_FALSE(V.Applicable);
}

TEST(CryptoChecker, CustomRuleSet) {
  CryptoChecker Checker({*findRule("R8")});
  EXPECT_EQ(Checker.rules().size(), 1u);
  EXPECT_EQ(Checker.rules()[0].Id, "R8");
}

TEST(ProjectReport, AnyMatchIsCachedAtInsertion) {
  auto Symbols = std::make_shared<ScanSymbols>();
  ProjectReport Report;
  Report.Symbols = Symbols;
  RuleVerdict Quiet;
  Quiet.Rule = Symbols->intern("R1");
  Quiet.Applicable = true;
  Report.addVerdict(Quiet);
  EXPECT_FALSE(Report.anyMatch());
  RuleVerdict Loud;
  Loud.Rule = Symbols->intern("R8");
  Loud.Applicable = true;
  Loud.Matched = true;
  Report.addVerdict(Loud);
  EXPECT_TRUE(Report.anyMatch());
  // A later quiet verdict must not reset the cached bit.
  RuleVerdict Tail;
  Tail.Rule = Symbols->intern("R9");
  Report.addVerdict(Tail);
  EXPECT_TRUE(Report.anyMatch());
}

TEST(ProjectReport, DedupeDropsRepeatedSitesWithinAUnit) {
  ScanSymbols Symbols;
  Violation A{Symbols.intern("R8"), Symbols.intern("Cipher"),
              Symbols.intern("l3"), 0};
  Violation SameSiteAgain = A;
  Violation OtherUnit = A;
  OtherUnit.UnitIndex = 1;
  Violation OtherSite = A;
  OtherSite.Site = Symbols.intern("l9");
  std::vector<Violation> Violations{A, SameSiteAgain, OtherUnit, OtherSite,
                                    SameSiteAgain};
  dedupeViolations(Violations);
  ASSERT_EQ(Violations.size(), 3u);
  // First-occurrence order is preserved.
  EXPECT_EQ(Violations[0].UnitIndex, 0u);
  EXPECT_EQ(Symbols.text(Violations[0].Site), "l3");
  EXPECT_EQ(Violations[1].UnitIndex, 1u);
  EXPECT_EQ(Symbols.text(Violations[2].Site), "l9");
}

TEST(ProjectReport, DuplicateEventsYieldOneViolationPerSite) {
  // Two misuses on one line share a site label ("l1") and collapse to a
  // single reported violation; moving one to its own line splits them.
  AnalysisResult SameLine = analyze(
      "class A { void m() throws Exception { "
      "MessageDigest d = MessageDigest.getInstance(\"MD5\"); "
      "MessageDigest e = MessageDigest.getInstance(\"MD5\"); } }");
  AnalysisResult TwoLines = analyze(
      "class A { void m() throws Exception {\n"
      "MessageDigest d = MessageDigest.getInstance(\"MD5\");\n"
      "MessageDigest e = MessageDigest.getInstance(\"MD5\"); } }");
  CryptoChecker Checker;
  UnitFacts Merged = UnitFacts::from(SameLine);
  UnitFacts Split = UnitFacts::from(TwoLines);
  ProjectReport MergedReport = Checker.checkProject({Merged});
  ProjectReport SplitReport = Checker.checkProject({Split});
  bool Seen = false;
  for (const RuleVerdict &V : MergedReport.verdicts())
    if (MergedReport.text(V.Rule) == "R1") {
      Seen = true;
      ASSERT_EQ(V.Violations.size(), 1u);
      EXPECT_EQ(MergedReport.text(V.Violations[0].Site), "l1");
    }
  EXPECT_TRUE(Seen);
  for (const RuleVerdict &V : SplitReport.verdicts())
    if (SplitReport.text(V.Rule) == "R1") {
      ASSERT_EQ(V.Violations.size(), 2u);
      EXPECT_NE(V.Violations[0].Site, V.Violations[1].Site);
    }
}
