//===- tests/test_budgets.cpp - Parser & interpreter resource budgets ------===//
//
// Budget knobs must degrade pathological inputs into a deterministic
// empty-but-flagged result: same outcome at every thread count, never a
// crash or an unbounded run.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLexer.h"
#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "javaast/Parser.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// A method body whose initializer nests \p Depth parenthesized levels.
std::string nestedExprSource(unsigned Depth) {
  std::string Source = "class A { void m() { int x = ";
  Source.append(Depth, '(');
  Source += "1";
  Source.append(Depth, ')');
  Source += "; } }";
  return Source;
}

/// A method driving a Cipher through \p Calls consecutive API calls.
std::string longChainSource(unsigned Calls) {
  std::string Source =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); ";
  for (unsigned I = 0; I < Calls; ++I)
    Source += "c.init(Cipher.ENCRYPT_MODE, k); ";
  Source += "} }";
  return Source;
}

} // namespace

TEST(ParseBudget, NestingCapFlagsAndReturnsNull) {
  std::string Source = nestedExprSource(300);
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::ParseLimits Limits;
  Limits.MaxNestingDepth = 50;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags, Limits);
  EXPECT_EQ(Unit, nullptr);
  EXPECT_TRUE(Diags.budgetExceeded());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParseBudget, NestingUnderCapParses) {
  std::string Source = nestedExprSource(300);
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  ASSERT_NE(Unit, nullptr);
  EXPECT_FALSE(Diags.budgetExceeded());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ParseBudget, TokenCapFlagsAndReturnsNull) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::ParseLimits Limits;
  Limits.MaxTokens = 10;
  java::CompilationUnit *Unit = java::parseJava(
      "class A { void m() { int x = 1; int y = 2; } }", Ctx, Diags, Limits);
  EXPECT_EQ(Unit, nullptr);
  EXPECT_TRUE(Diags.budgetExceeded());
}

TEST(ParseBudget, DeepStatementNestingCapped) {
  std::string Source = "class A { void m() { ";
  for (unsigned I = 0; I < 300; ++I)
    Source += "if (true) { ";
  Source += "int x = 1; ";
  for (unsigned I = 0; I < 300; ++I)
    Source += "} ";
  Source += "} }";
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::ParseLimits Limits;
  Limits.MaxNestingDepth = 64;
  EXPECT_EQ(java::parseJava(Source, Ctx, Diags, Limits), nullptr);
  EXPECT_TRUE(Diags.budgetExceeded());
}

TEST(AnalysisBudget, FuelExhaustionFlagged) {
  PipelineConfig Opts;
  Opts.Limits.Analysis.Fuel = 3;
  DiffCode System(api(), Opts);
  DiffCode::SourceAnalysis Out =
      System.analyzeSourceChecked(longChainSource(50));
  EXPECT_EQ(Out.Status, ChangeStatus::BudgetExceeded);
  EXPECT_TRUE(Out.Result.Stats.FuelExhausted);
  EXPECT_EQ(Out.Detail, "interpreter fuel exhausted");
}

TEST(AnalysisBudget, ObjectCapDegradesToUntracked) {
  PipelineConfig Opts;
  Opts.Limits.Analysis.MaxObjects = 1;
  DiffCode System(api(), Opts);
  DiffCode::SourceAnalysis Out = System.analyzeSourceChecked(
      "class A { void m() throws Exception { "
      "Cipher a = Cipher.getInstance(\"AES\"); "
      "Cipher b = Cipher.getInstance(\"DES\"); } }");
  EXPECT_EQ(Out.Status, ChangeStatus::BudgetExceeded);
  EXPECT_TRUE(Out.Result.Stats.ObjectBudgetHit);
  EXPECT_LE(Out.Result.Objects.size(), 1u);
}

TEST(AnalysisBudget, EventCapTruncationIsBudgetExceeded) {
  // One Cipher gets 255 distinct updates in the old file (getInstance
  // plus 255 fill the per-object cap exactly) and 300 in the new one.
  // The new side's 45 surplus updates are dropped, so the change must
  // not read as a clean, usage-preserving one.
  auto Updates = [](unsigned N) {
    std::string Body = "Cipher c = Cipher.getInstance(\"AES\"); ";
    for (unsigned I = 0; I < N; ++I)
      Body += "c.update(b, " + std::to_string(I) + ", 1); ";
    return "class A { void m(byte[] b) throws Exception { " + Body + "} }";
  };
  corpus::CodeChange Change;
  Change.ProjectName = "p";
  Change.FileName = "A.java";
  Change.OldCode = Updates(analysis::MaxEventsPerObject - 1);
  Change.NewCode = Updates(300);

  DiffCode System(api());
  DiffCode::SourceAnalysis Old = System.analyzeSourceChecked(Change.OldCode);
  EXPECT_EQ(Old.Status, ChangeStatus::Ok);
  DiffCode::SourceAnalysis New = System.analyzeSourceChecked(Change.NewCode);
  EXPECT_EQ(New.Status, ChangeStatus::BudgetExceeded);
  EXPECT_TRUE(New.Result.Stats.EventBudgetHit);
  EXPECT_EQ(New.Detail, "usage-event cap hit");

  ChangeRecord Direct = System.processChange(
      Change, api().targetClasses(), {}, *System.labels());
  EXPECT_EQ(Direct.Status, ChangeStatus::BudgetExceeded);
  EXPECT_EQ(Direct.StatusDetail, "usage-event cap hit");
  std::vector<ChangeRecord> Records = System.analyzeChanges(
      {.Changes = {&Change}, .TargetClasses = api().targetClasses()});
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Status, ChangeStatus::BudgetExceeded);
  EXPECT_EQ(Records[0].StatusDetail, "usage-event cap hit");
}

TEST(AnalysisBudget, CleanRunReportsStepsAndNoFlags) {
  DiffCode System(api());
  DiffCode::SourceAnalysis Out =
      System.analyzeSourceChecked(longChainSource(3));
  EXPECT_EQ(Out.Status, ChangeStatus::Ok);
  EXPECT_FALSE(Out.Result.Stats.anyBudgetHit());
  EXPECT_GT(Out.Result.Stats.StepsUsed, 0u);
}

TEST(AnalysisBudget, RecoverableSyntaxErrorIsDegraded) {
  DiffCode System(api());
  DiffCode::SourceAnalysis Out = System.analyzeSourceChecked(
      "class A { void m() { int x = ; } void n() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  EXPECT_EQ(Out.Status, ChangeStatus::Degraded);
  EXPECT_FALSE(Out.Detail.empty());
}

TEST(AnalysisBudget, EmptySourceIsOk) {
  DiffCode System(api());
  DiffCode::SourceAnalysis Out = System.analyzeSourceChecked("");
  EXPECT_EQ(Out.Status, ChangeStatus::Ok);
  EXPECT_TRUE(Out.Detail.empty());
}

TEST(BudgetPipeline, DegradedOutcomeIdenticalAcrossThreadCounts) {
  // A corpus mixing healthy changes with budget-tripping ones must yield
  // byte-identical reports whether one or eight workers process it.
  std::vector<corpus::CodeChange> Storage;
  auto Add = [&Storage](const char *Name, unsigned Commit, std::string OldCode,
                        std::string NewCode) {
    corpus::CodeChange C;
    C.ProjectName = Name;
    C.CommitIndex = Commit;
    C.FileName = "A.java";
    C.OldCode = std::move(OldCode);
    C.NewCode = std::move(NewCode);
    Storage.push_back(std::move(C));
  };
  Add("healthy", 0,
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"DES\"); } }",
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  Add("deepnest", 1, nestedExprSource(300),
      "class A { void m() throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); } }");
  Add("fuelhog", 2, longChainSource(60), longChainSource(61));
  Add("healthy2", 3, "",
      "class A { void m() throws Exception { "
      "Mac m = Mac.getInstance(\"HmacSHA256\"); } }");

  std::vector<const corpus::CodeChange *> Mined;
  for (const corpus::CodeChange &C : Storage)
    Mined.push_back(&C);

  auto Run = [&Mined](unsigned Threads) {
    PipelineConfig Opts;
    Opts.Threads = Threads;
    Opts.Limits.Parse.MaxNestingDepth = 50;
    Opts.Limits.Analysis.Fuel = 100;
    DiffCode System(api(), Opts);
    return System.run(
        {.Changes = Mined, .TargetClasses = api().targetClasses()});
  };

  CorpusReport Serial = Run(1);
  ASSERT_EQ(Serial.Changes.size(), 4u);
  EXPECT_EQ(Serial.Changes[0].Status, ChangeStatus::Ok);
  EXPECT_EQ(Serial.Changes[1].Status, ChangeStatus::BudgetExceeded);
  EXPECT_EQ(Serial.Changes[2].Status, ChangeStatus::BudgetExceeded);
  EXPECT_EQ(Serial.Changes[3].Status, ChangeStatus::Ok);
  // The healthy change still produced its usage change.
  EXPECT_TRUE(Serial.Changes[0].PerClass.count("Cipher"));
  // Health tallies match the statuses.
  EXPECT_EQ(Serial.Health.count(ChangeStatus::Ok), 2u);
  EXPECT_EQ(Serial.Health.count(ChangeStatus::BudgetExceeded), 2u);
  EXPECT_EQ(Serial.Health.troubled(), 2u);
  EXPECT_FALSE(Serial.Health.WorstOffenders.empty());

  std::string SerialJson = corpusReportToJson(Serial);
  for (unsigned Threads : {2u, 8u}) {
    CorpusReport Threaded = Run(Threads);
    EXPECT_EQ(SerialJson, corpusReportToJson(Threaded))
        << "thread count " << Threads;
    ASSERT_EQ(Threaded.Changes.size(), Serial.Changes.size());
    for (std::size_t I = 0; I < Serial.Changes.size(); ++I)
      EXPECT_EQ(changeRecordToJson(Serial.Changes[I]),
                changeRecordToJson(Threaded.Changes[I]))
          << "record " << I << " at " << Threads << " threads";
  }
}

TEST(BudgetPipeline, DefaultLimitsCalibratedForCleanCorpus) {
  // The ParseLimits/MaxObjects defaults are calibrated so that a clean
  // generated corpus sails through without tripping any budget: the bar
  // is < 0.1% budget-exceeded over ~1k+ mined changes (Parser.h records
  // the measured corpus percentiles behind the chosen defaults).
  corpus::CorpusGenerator Gen;
  corpus::Corpus C = Gen.generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_GE(Mined.size(), 1000u);

  PipelineConfig Opts;  // all-default budgets — that is the point
  Opts.Threads = 8;
  DiffCode System(api(), Opts);
  CorpusReport Report = System.run(
      {.Changes = Mined, .TargetClasses = api().targetClasses()});

  std::size_t Exceeded = Report.Health.count(ChangeStatus::BudgetExceeded);
  EXPECT_LT(static_cast<double>(Exceeded),
            0.001 * static_cast<double>(Mined.size()))
      << Exceeded << " of " << Mined.size() << " changes hit a budget";
  // The defaults are finite, not "unlimited": a pathological input must
  // still be stopped.
  java::ParseLimits Defaults;
  EXPECT_GT(Defaults.MaxTokens, 0u);
  EXPECT_GT(Defaults.MaxNestingDepth, 0u);
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  EXPECT_EQ(java::parseJava(nestedExprSource(600), Ctx, Diags), nullptr);
  EXPECT_TRUE(Diags.budgetExceeded());
}

TEST(BudgetPipeline, HealthSerializedInReportJson) {
  std::vector<corpus::CodeChange> Storage(1);
  Storage[0].ProjectName = "p";
  Storage[0].NewCode = nestedExprSource(300);
  std::vector<const corpus::CodeChange *> Mined = {&Storage[0]};

  PipelineConfig Opts;
  Opts.Limits.Parse.MaxNestingDepth = 32;
  DiffCode System(api(), Opts);
  CorpusReport Report =
      System.run({.Changes = Mined, .TargetClasses = {"Cipher"}});
  std::string Json = corpusReportToJson(Report);
  EXPECT_NE(Json.find("\"health\""), std::string::npos);
  EXPECT_NE(Json.find("\"budget-exceeded\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"ok\":0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Budget parity across lexers, and faults inside arena parses
//===----------------------------------------------------------------------===//

namespace {

/// Renders diagnostics ("line:col: level: message" lines) so two runs can
/// be compared byte for byte, including the positions budget trips fire
/// at.
std::string renderDiags(const java::DiagnosticsEngine &Diags) {
  std::string Out;
  for (const java::Diagnostic &D : Diags.all()) {
    Out += D.str();
    Out += '\n';
  }
  Out += Diags.budgetExceeded() ? "budget=1" : "budget=0";
  return Out;
}

/// Parses \p Source with \p Limits from either the production or the
/// reference lexer's token stream.
std::string parseDiagsVia(bool UseReference, const std::string &Source,
                          java::ParseLimits Limits, bool &GotUnit) {
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::TokenStream Stream =
      UseReference ? java::ReferenceLexer(Source, Diags).lexAll()
                   : java::Lexer(Source, Diags).lexAll();
  java::Parser P(std::move(Stream), Ctx, Diags, Limits);
  GotUnit = P.parseCompilationUnit() != nullptr;
  return renderDiags(Diags);
}

} // namespace

TEST(ParseBudget, NestingTripIdenticalFromEitherLexer) {
  java::ParseLimits Limits;
  Limits.MaxNestingDepth = 50;
  const std::string Source = nestedExprSource(300);
  bool NewGotUnit = true, RefGotUnit = true;
  std::string NewDiags = parseDiagsVia(false, Source, Limits, NewGotUnit);
  std::string RefDiags = parseDiagsVia(true, Source, Limits, RefGotUnit);
  EXPECT_FALSE(NewGotUnit);
  EXPECT_FALSE(RefGotUnit);
  // Byte-identical rendering means the trip fired at the same source
  // position regardless of which scanner produced the tokens.
  EXPECT_EQ(NewDiags, RefDiags);
  EXPECT_NE(NewDiags.find("budget=1"), std::string::npos);
}

TEST(ParseBudget, TokenTripIdenticalFromEitherLexer) {
  java::ParseLimits Limits;
  Limits.MaxTokens = 10;
  const std::string Source =
      "class A { void m() { int x = 1; int y = 2; } }";
  bool NewGotUnit = true, RefGotUnit = true;
  std::string NewDiags = parseDiagsVia(false, Source, Limits, NewGotUnit);
  std::string RefDiags = parseDiagsVia(true, Source, Limits, RefGotUnit);
  EXPECT_FALSE(NewGotUnit);
  EXPECT_FALSE(RefGotUnit);
  EXPECT_EQ(NewDiags, RefDiags);
}

TEST(ParseBudget, InjectedParserFaultFiresInsideArenaParse) {
  // A Rate=1 parser-site plan must throw from inside the arena-backed
  // parse; afterwards the same context resets and parses cleanly, i.e. a
  // mid-parse exception leaves the arena reusable, not poisoned.
  support::FaultPlan Plan;
  Plan.Seed = 99;
  Plan.Rate = 1.0;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Parser);
  support::FaultStats Stats;
  Plan.Stats = &Stats;

  const std::string Source = longChainSource(4);
  java::AstContext Ctx;
  {
    support::FaultScope Scope(&Plan, /*ScopeKey=*/7);
    java::DiagnosticsEngine Diags;
    EXPECT_THROW((void)java::parseJava(Source, Ctx, Diags),
                 support::FaultInjected);
  }
  EXPECT_GT(Stats.fired(support::FaultSite::Parser), 0u);

  Ctx.reset();
  EXPECT_EQ(Ctx.size(), 0u);
  java::DiagnosticsEngine CleanDiags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, CleanDiags);
  ASSERT_NE(Unit, nullptr);
  EXPECT_FALSE(CleanDiags.hasErrors());
  EXPECT_GT(Ctx.size(), 0u);
}
