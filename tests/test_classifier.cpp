//===- tests/test_classifier.cpp - fix/bug/none + rule suggestion tests ----===//

#include "rules/ChangeClassifier.h"
#include "rules/RuleSuggestion.h"

#include "analysis/AbstractInterpreter.h"
#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "javaast/Parser.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"
#include "usage/UsageChange.h"

#include "ReferenceRules.h"

#include <gtest/gtest.h>

#include <optional>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::rules;
using namespace diffcode::usage;

namespace {

AnalysisResult analyze(std::string_view Source) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  AbstractInterpreter Interp(apimodel::CryptoApiModel::javaCryptoApi());
  return Interp.analyze(Unit);
}

ChangeClass classify(const char *RuleId, std::string_view OldSrc,
                     std::string_view NewSrc) {
  const Rule *R = findRule(RuleId);
  EXPECT_NE(R, nullptr);
  AnalysisResult OldR = analyze(OldSrc);
  AnalysisResult NewR = analyze(NewSrc);
  return classifyChange(*R, UnitFacts::from(OldR), UnitFacts::from(NewR));
}

const char *EcbVersion =
    "class A { void m(Key k) throws Exception { "
    "Cipher c = Cipher.getInstance(\"AES\"); "
    "c.init(Cipher.ENCRYPT_MODE, k); } }";
const char *CbcVersion =
    "class A { void m(Key k, byte[] ivb) throws Exception { "
    "Cipher c = Cipher.getInstance(\"AES/CBC/PKCS5Padding\"); "
    "c.init(Cipher.ENCRYPT_MODE, k, new IvParameterSpec(ivb)); } }";

} // namespace

TEST(ChangeClassifier, FixDetected) {
  EXPECT_EQ(classify("CL1", EcbVersion, CbcVersion),
            ChangeClass::SecurityFix);
}

TEST(ChangeClassifier, BugDetected) {
  EXPECT_EQ(classify("CL1", CbcVersion, EcbVersion),
            ChangeClass::BuggyChange);
}

TEST(ChangeClassifier, RefactoringIsNone) {
  const char *Renamed =
      "class A { void configure(Key secret) throws Exception { "
      "Cipher cipher = Cipher.getInstance(\"AES\"); "
      "cipher.init(Cipher.ENCRYPT_MODE, secret); } }";
  EXPECT_EQ(classify("CL1", EcbVersion, Renamed), ChangeClass::NonSemantic);
}

TEST(ChangeClassifier, BothViolatingIsNone) {
  const char *StillEcb =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES/ECB/PKCS5Padding\"); "
      "c.init(Cipher.ENCRYPT_MODE, k); } }";
  EXPECT_EQ(classify("CL1", EcbVersion, StillEcb), ChangeClass::NonSemantic);
}

TEST(ChangeClassifier, UnrelatedRuleIsNone) {
  // CL4 (PBE iterations) does not apply to a Cipher-only change.
  EXPECT_EQ(classify("CL4", EcbVersion, CbcVersion),
            ChangeClass::NonSemantic);
}

TEST(ChangeClassifier, IntroductionsAndDeletionsAreNotFixesOrBugs) {
  // Introducing a violating usage from nothing is an addition, not a
  // regression of existing code; deleting it is a removal, not a fix.
  EXPECT_EQ(classify("CL1", "class A { }", EcbVersion),
            ChangeClass::NonSemantic);
  EXPECT_EQ(classify("CL1", EcbVersion, "class A { }"),
            ChangeClass::NonSemantic);
}

TEST(ChangeClassifier, FactsOutliveTheAnalysisResult) {
  // UnitFacts own their digest: checking and classifying after the
  // AnalysisResults are gone reads no freed memory.
  std::optional<AnalysisResult> OldR(analyze(EcbVersion));
  std::optional<AnalysisResult> NewR(analyze(CbcVersion));
  UnitFacts OldFacts = UnitFacts::from(*OldR);
  UnitFacts NewFacts = UnitFacts::from(*NewR);
  OldR.reset();
  NewR.reset();

  CryptoChecker Checker(cryptoLintRules());
  ProjectReport Report = Checker.checkProject({OldFacts});
  ASSERT_TRUE(Report.anyMatch());
  const RuleVerdict &CL1 = Report.verdicts()[0];
  EXPECT_EQ(Report.text(CL1.Rule), "CL1");
  ASSERT_EQ(CL1.Violations.size(), 1u);
  EXPECT_EQ(Report.text(CL1.Violations[0].Type), "Cipher");
  EXPECT_EQ(Report.text(CL1.Violations[0].Site), "l1");
  EXPECT_EQ(classifyChange(*findRule("CL1"), OldFacts, NewFacts),
            ChangeClass::SecurityFix);
}

TEST(ChangeClassifier, AgreesWithTheRawEventOracleOnAGeneratedCorpus) {
  // Every mined change of a generated corpus, under R1-R13 and CL1-CL5,
  // with the project's metadata: classification, applicability and match
  // of each version equal the seed evaluator's.
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 60;
  Opts.Seed = 42;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);
  corpus::Miner M(Api);
  std::vector<const Rule *> Rules;
  for (const std::vector<Rule> *Set : {&elicitedRules(), &cryptoLintRules()})
    for (const Rule &R : *Set)
      Rules.push_back(&R);

  unsigned Changes = 0, Semantic = 0;
  for (const corpus::Project &P : C.Projects)
    for (const corpus::CodeChange *Change : M.mineProject(P)) {
      AnalysisResult OldR = System.analyzeSourceChecked(Change->OldCode).Result;
      AnalysisResult NewR = System.analyzeSourceChecked(Change->NewCode).Result;
      UnitFacts OldFacts = UnitFacts::from(OldR);
      UnitFacts NewFacts = UnitFacts::from(NewR);
      reference::Facts OldRaw = reference::Facts::from(OldR);
      reference::Facts NewRaw = reference::Facts::from(NewR);
      for (const Rule *R : Rules) {
        ChangeClass Got = classifyChange(*R, OldFacts, NewFacts, P.Meta);
        EXPECT_EQ(Got, reference::classify(*R, OldRaw, NewRaw, P.Meta))
            << Change->origin() << " " << R->Id;
        Semantic += Got != ChangeClass::NonSemantic;
        EXPECT_EQ(ruleApplicable(*R, {OldFacts}, P.Meta),
                  reference::applicable(*R, {OldRaw}, P.Meta))
            << Change->origin() << " old " << R->Id;
        EXPECT_EQ(ruleApplicable(*R, {NewFacts}, P.Meta),
                  reference::applicable(*R, {NewRaw}, P.Meta))
            << Change->origin() << " new " << R->Id;
        EXPECT_EQ(ruleMatches(*R, {OldFacts}, P.Meta),
                  reference::matches(*R, {OldRaw}, P.Meta))
            << Change->origin() << " old " << R->Id;
        EXPECT_EQ(ruleMatches(*R, {NewFacts}, P.Meta),
                  reference::matches(*R, {NewRaw}, P.Meta))
            << Change->origin() << " new " << R->Id;
      }
      ++Changes;
    }
  EXPECT_GT(Changes, 500u);
  EXPECT_GT(Semantic, 20u);
}

TEST(ChangeClassifier, PipelineRecordsEqualTheFactsOracle) {
  // The pipeline classifies from what it keeps of each analyzed version,
  // and serves a version one change analyzed to the next change of its
  // file history. The oracle shares nothing: classifyChange over facts of
  // fresh analyses of both sides of every change.
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  std::vector<const Rule *> Rules;
  for (const std::vector<Rule> *Set : {&elicitedRules(), &cryptoLintRules()})
    for (const Rule &R : *Set)
      Rules.push_back(&R);
  for (std::uint64_t Seed : {42ull, 47ull}) {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = 120;
    Opts.Seed = Seed;
    corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
    std::vector<const corpus::CodeChange *> Mined = corpus::Miner(Api).mine(C);
    ASSERT_GT(Mined.size(), 1000u);

    core::DiffCode Oracle(Api);
    std::vector<std::map<std::string, ChangeClass>> Expected;
    unsigned Semantic = 0;
    for (const corpus::CodeChange *Change : Mined) {
      UnitFacts OldFacts =
          UnitFacts::from(Oracle.analyzeSourceChecked(Change->OldCode).Result);
      UnitFacts NewFacts =
          UnitFacts::from(Oracle.analyzeSourceChecked(Change->NewCode).Result);
      std::map<std::string, ChangeClass> Want;
      for (const Rule *R : Rules) {
        ChangeClass Got = classifyChange(*R, OldFacts, NewFacts);
        Semantic += Got != ChangeClass::NonSemantic;
        Want.emplace(R->Id, Got);
      }
      Expected.push_back(std::move(Want));
    }
    EXPECT_GT(Semantic, 20u);

    for (unsigned Threads : {1u, 8u}) {
      core::DiffCode System(Api, {.Threads = Threads});
      std::vector<core::ChangeRecord> Records = System.analyzeChanges(
          {.Changes = Mined,
           .TargetClasses = Api.targetClasses(),
           .ClassifyWith = Rules});
      ASSERT_EQ(Records.size(), Mined.size());
      for (std::size_t I = 0; I < Mined.size(); ++I)
        EXPECT_EQ(Records[I].Classification, Expected[I])
            << "seed " << Seed << ", " << Threads << " threads, "
            << Mined[I]->origin() << " " << Mined[I]->FileName;
    }
  }
}

TEST(ChangeClassifier, Names) {
  EXPECT_STREQ(changeClassName(ChangeClass::SecurityFix), "fix");
  EXPECT_STREQ(changeClassName(ChangeClass::BuggyChange), "bug");
  EXPECT_STREQ(changeClassName(ChangeClass::NonSemantic), "none");
}

//===----------------------------------------------------------------------===//
// Rule suggestion (Section 6.3)
//===----------------------------------------------------------------------===//

namespace {

NodeLabel rootL(const char *T) { return NodeLabel::root(T); }
NodeLabel methodL(const char *Sig) { return NodeLabel::method(Sig); }

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

UsageChange figure2Change() {
  return UsageChange::intern(
      table(), "Cipher",
      {{rootL("Cipher"), methodL("Cipher.getInstance/1"),
        NodeLabel::arg(1, AbstractValue::strConst("AES"))}},
      {{rootL("Cipher"), methodL("Cipher.getInstance/1"),
        NodeLabel::arg(1, AbstractValue::strConst("AES/CBC/PKCS5Padding"))},
       {rootL("Cipher"), methodL("Cipher.init/3"),
        NodeLabel::arg(3, AbstractValue::topObject("IvParameterSpec"))}});
}

} // namespace

TEST(RuleSuggestion, Figure2SuggestionMatchesUnfixedCode) {
  auto Suggested = suggestRule(figure2Change(), "fig2");
  ASSERT_TRUE(Suggested.has_value());
  ASSERT_EQ(Suggested->Clauses.size(), 1u);
  EXPECT_EQ(Suggested->Clauses[0].TypeName, "Cipher");

  AnalysisResult OldR = analyze(EcbVersion);
  AnalysisResult NewR = analyze(CbcVersion);
  EXPECT_TRUE(ruleMatches(*Suggested, {UnitFacts::from(OldR)}));
  EXPECT_FALSE(ruleMatches(*Suggested, {UnitFacts::from(NewR)}));
}

TEST(RuleSuggestion, ConstByteArrayBecomesIsConstant) {
  UsageChange C = UsageChange::intern(
      table(), "IvParameterSpec",
      {{rootL("IvParameterSpec"), methodL("IvParameterSpec.<init>/1"),
        NodeLabel::arg(1, AbstractValue::byteArrayConst())}},
      {{rootL("IvParameterSpec"), methodL("IvParameterSpec.<init>/1"),
        NodeLabel::arg(1, AbstractValue::byteArrayTop())}});
  auto Suggested = suggestRule(C);
  ASSERT_TRUE(Suggested.has_value());

  AnalysisResult Bad = analyze(
      "class A { void m() { IvParameterSpec iv = new IvParameterSpec("
      "\"0123456789abcdef\".getBytes()); } }");
  AnalysisResult Good = analyze(
      "class A { void m(byte[] raw) { "
      "IvParameterSpec iv = new IvParameterSpec(raw); } }");
  EXPECT_TRUE(ruleMatches(*Suggested, {UnitFacts::from(Bad)}));
  EXPECT_FALSE(ruleMatches(*Suggested, {UnitFacts::from(Good)}));
}

TEST(RuleSuggestion, IntegerConstraint) {
  UsageChange C = UsageChange::intern(
      table(), "PBEKeySpec",
      {{rootL("PBEKeySpec"), methodL("PBEKeySpec.<init>/4"),
        NodeLabel::arg(3, AbstractValue::intConst(100))}},
      {{rootL("PBEKeySpec"), methodL("PBEKeySpec.<init>/4"),
        NodeLabel::arg(3, AbstractValue::intConst(10000))}});
  auto Suggested = suggestRule(C);
  ASSERT_TRUE(Suggested.has_value());
  AnalysisResult Bad = analyze(
      "class A { void m(char[] p, byte[] s) { "
      "PBEKeySpec k = new PBEKeySpec(p, s, 100, 128); } }");
  AnalysisResult Good = analyze(
      "class A { void m(char[] p, byte[] s) { "
      "PBEKeySpec k = new PBEKeySpec(p, s, 10000, 128); } }");
  EXPECT_TRUE(ruleMatches(*Suggested, {UnitFacts::from(Bad)}));
  EXPECT_FALSE(ruleMatches(*Suggested, {UnitFacts::from(Good)}));
}

TEST(RuleSuggestion, EmptyChangeGivesNothing) {
  UsageChange Empty;
  Empty.TypeName = "Cipher";
  EXPECT_FALSE(suggestRule(Empty).has_value());
}

TEST(RuleSuggestion, PathWithoutMethodSkipped) {
  // A root-only path carries no pattern.
  UsageChange C =
      UsageChange::intern(table(), "Cipher", {{rootL("Cipher")}}, {});
  EXPECT_FALSE(suggestRule(C).has_value());
}

TEST(RuleSuggestion, DescribeRuleRendersPaperNotation) {
  std::string Text = describeRule(*findRule("R1"));
  EXPECT_NE(Text.find("R1"), std::string::npos);
  EXPECT_NE(Text.find("MessageDigest"), std::string::npos);
  EXPECT_NE(Text.find("getInstance"), std::string::npos);

  std::string R13Text = describeRule(*findRule("R13"));
  EXPECT_NE(R13Text.find("¬Mac"), std::string::npos);
}
