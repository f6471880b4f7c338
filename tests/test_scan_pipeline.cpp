//===- tests/test_scan_pipeline.cpp - Streaming rule scanner --------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scan/ pipeline against its ground truth, the seed's raw-event rule
/// evaluator (tests/ReferenceRules.h) run serially over every project:
/// whole-corpus byte-identity at 1/2/8 threads (streamed and
/// batch-serialized), edge cases (empty project, empty request,
/// applicable-but-unmatched, hostile project names and garbage units),
/// fault-campaign determinism across thread counts, the unit cache's
/// transparency, rule filtering, and the demand-driven refinement
/// semantics on hand-built abstract state where merged-log and
/// per-execution verdicts genuinely diverge.
///
//===----------------------------------------------------------------------===//

#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"

#include "corpus/CorpusGenerator.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"

#include "ReferenceRules.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace diffcode;
using namespace diffcode::scan;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

corpus::Corpus smallCorpus(unsigned Projects = 24, std::uint64_t Seed = 7) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = Projects;
  Opts.Seed = Seed;
  return corpus::CorpusGenerator(Opts).generate();
}

/// One project's record as the streamed report writes it.
std::string recordJson(const ProjectScanRecord &Record) {
  std::ostringstream Out;
  ScanReportWriter Writer(Out);
  Writer.onProject(0, Record);
  return Out.str();
}

ScanRequest requestOver(const corpus::Corpus &C, bool Refine = false) {
  ScanRequest Request;
  for (const corpus::Project &P : C.Projects)
    Request.Projects.push_back(&P);
  Request.Refine = Refine;
  return Request;
}

/// The ground truth: the oracle's project check, run serially and
/// composed into a ScanReport.
ScanReport serialReference(const std::vector<const corpus::Project *> &Projects) {
  core::DiffCode System(api());
  const std::vector<rules::Rule> &Rules = rules::elicitedRules();
  auto Symbols = std::make_shared<rules::ScanSymbols>();
  ScanReport Report;
  Report.Symbols = Symbols;
  for (const corpus::Project *P : Projects) {
    ProjectScanRecord Rec;
    Rec.Project = P->Name;
    Rec.Units = static_cast<unsigned>(P->Files.size());
    std::vector<rules::reference::Facts> Units;
    for (const corpus::ProjectFile &File : P->Files) {
      core::DiffCode::SourceAnalysis SA = System.analyzeSourceChecked(File.Code);
      if (SA.Status > Rec.Status) {
        Rec.Status = SA.Status;
        Rec.Detail = std::move(SA.Detail);
      }
      Units.push_back(rules::reference::Facts::from(SA.Result));
    }
    Rec.Report =
        rules::reference::checkProject(Rules, Symbols, Units, P->Meta);
    Report.Projects.push_back(std::move(Rec));
  }
  for (const rules::Rule &R : Rules)
    Report.Rules.push_back({Symbols->intern(R.Id), 0, 0, 0, 0});
  for (const ProjectScanRecord &Rec : Report.Projects) {
    ++Report.StatusCounts[static_cast<unsigned>(Rec.Status)];
    if (Rec.Report.anyMatch())
      ++Report.ProjectsWithViolation;
    const std::vector<rules::RuleVerdict> &Verdicts = Rec.Report.verdicts();
    for (std::size_t J = 0; J < Verdicts.size(); ++J) {
      RuleTotal &T = Report.Rules[J];
      T.Applicable += Verdicts[J].Applicable ? 1 : 0;
      T.Matched += Verdicts[J].Matched ? 1 : 0;
      T.Violations += Verdicts[J].Violations.size();
      T.Suppressed += Verdicts[J].Suppressed;
    }
  }
  return Report;
}

/// Streams a scan through ScanReportWriter and returns both the streamed
/// bytes and the report.
std::string streamScan(const Scanner &S, const ScanRequest &Request,
                       ScanReport *Out = nullptr) {
  std::ostringstream OS;
  ScanReportWriter Writer(OS);
  ScanReport Report = S.scan(Request, &Writer);
  Writer.finish(Report);
  if (Out)
    *Out = std::move(Report);
  return OS.str();
}

bool balancedJson(const std::string &Json) {
  long Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : Json) {
    if (Escaped) {
      Escaped = false;
      continue;
    }
    if (C == '\\') {
      Escaped = true;
      continue;
    }
    if (C == '"') {
      InString = !InString;
      continue;
    }
    if (InString)
      continue;
    if (C == '{' || C == '[')
      ++Depth;
    if (C == '}' || C == ']')
      if (--Depth < 0)
        return false;
  }
  return Depth == 0 && !InString;
}

corpus::Project projectOf(std::string Name,
                          std::vector<std::pair<std::string, std::string>> Files,
                          rules::ProjectMetadata Meta = {}) {
  corpus::Project P;
  P.Name = std::move(Name);
  P.Meta = Meta;
  for (auto &[FileName, Code] : Files)
    P.Files.push_back({std::move(FileName), std::move(Code)});
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: scanner vs the serial checker, all thread counts
//===----------------------------------------------------------------------===//

TEST(ScanDifferential, ByteIdenticalToSerialCheckerAtAllThreadCounts) {
  corpus::Corpus C = smallCorpus();
  ScanRequest Request = requestOver(C);
  std::string Reference = scanReportToJson(serialReference(Request.Projects));
  ASSERT_FALSE(Reference.empty());
  ASSERT_TRUE(balancedJson(Reference));

  for (unsigned Threads : {1u, 2u, 8u}) {
    core::PipelineConfig Config;
    Config.Threads = Threads;
    Scanner S(api(), Config);
    ScanReport Report;
    std::string Streamed = streamScan(S, Request, &Report);
    EXPECT_EQ(Streamed, Reference) << Threads << " threads (streamed)";
    EXPECT_EQ(scanReportToJson(Report), Reference)
        << Threads << " threads (batch)";
  }
}

TEST(ScanDifferential, SinkSeesStrictlyAscendingIndices) {
  corpus::Corpus C = smallCorpus(16, 3);
  struct OrderSink : ScanSink {
    std::vector<std::size_t> Seen;
    void onProject(std::size_t Index, const ProjectScanRecord &) override {
      Seen.push_back(Index);
    }
  } Sink;
  core::PipelineConfig Config;
  Config.Threads = 8;
  Scanner S(api(), Config);
  ScanReport Report = S.scan(requestOver(C), &Sink);
  ASSERT_EQ(Sink.Seen.size(), C.Projects.size());
  for (std::size_t I = 0; I < Sink.Seen.size(); ++I)
    EXPECT_EQ(Sink.Seen[I], I);
  EXPECT_EQ(Report.Projects.size(), C.Projects.size());
}

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(ScanEdgeCases, EmptyRequestYieldsEmptyWellFormedReport) {
  Scanner S(api());
  ScanReport Report = S.scan(ScanRequest());
  EXPECT_TRUE(Report.Projects.empty());
  EXPECT_EQ(Report.ProjectsWithViolation, 0u);
  ASSERT_EQ(Report.Rules.size(), rules::elicitedRules().size());
  for (const RuleTotal &T : Report.Rules) {
    EXPECT_EQ(T.Applicable, 0u);
    EXPECT_EQ(T.Violations, 0u);
  }
  std::string Json = scanReportToJson(Report);
  EXPECT_TRUE(balancedJson(Json));
  EXPECT_NE(Json.find("\"projects\":["), std::string::npos);
}

TEST(ScanEdgeCases, EmptyProjectIsOkWithEmptyVerdicts) {
  corpus::Project Empty = projectOf("hollow", {});
  ScanRequest Request;
  Request.Projects = {&Empty};
  Scanner S(api());
  ScanReport Report = S.scan(Request);
  ASSERT_EQ(Report.Projects.size(), 1u);
  const ProjectScanRecord &Rec = Report.Projects[0];
  EXPECT_EQ(Rec.Status, core::ChangeStatus::Ok);
  EXPECT_EQ(Rec.Units, 0u);
  EXPECT_FALSE(Rec.Report.anyMatch());
  // Every rule still gets a verdict; none applicable on zero units.
  ASSERT_EQ(Rec.Report.verdicts().size(), rules::elicitedRules().size());
  for (const rules::RuleVerdict &V : Rec.Report.verdicts())
    EXPECT_FALSE(V.Applicable);
}

TEST(ScanEdgeCases, ApplicableButUnmatchedEverywhere) {
  // A safe MessageDigest use: R1 (no SHA-1/MD5) is applicable (the type
  // is present) but unmatched (the formula finds no weak algorithm).
  corpus::Project Safe = projectOf(
      "safe",
      {{"Safe.java", "class Safe { void m() throws Exception { MessageDigest "
                     "d = MessageDigest.getInstance(\"SHA-256\"); } }"}});
  ScanRequest Request;
  Request.Projects = {&Safe};
  Scanner S(api());
  ScanReport Report = S.scan(Request);
  ASSERT_EQ(Report.Projects.size(), 1u);
  const ProjectScanRecord &Rec = Report.Projects[0];
  bool SawApplicableUnmatched = false;
  for (const rules::RuleVerdict &V : Rec.Report.verdicts())
    if (Rec.Report.text(V.Rule) == "R1") {
      EXPECT_TRUE(V.Applicable);
      EXPECT_FALSE(V.Matched);
      EXPECT_TRUE(V.Violations.empty());
      SawApplicableUnmatched = V.Applicable && !V.Matched;
    }
  EXPECT_TRUE(SawApplicableUnmatched);
  EXPECT_FALSE(Rec.Report.anyMatch());
  EXPECT_EQ(Report.ProjectsWithViolation, 0u);
}

TEST(ScanEdgeCases, HostileNamesAndGarbageUnitsStayContainedAndEscaped) {
  // Adversarial project names (test_adversarial_labels' vocabulary) over
  // garbage units: records must be contained per project and the JSON
  // must stay structurally valid with everything escaped.
  const char *Hostile[] = {
      "proj\"quoted\"", "back\\slash", "{\"json\": [1,2]}",
      "ключ-π-鍵",      "line1\nline2", "tab\there",
  };
  std::vector<corpus::Project> Projects;
  for (const char *Name : Hostile)
    Projects.push_back(projectOf(
        Name, {{"Broken.java", "class { Cipher c = getInstance(\"unterminated"},
               {"Ok.java", "class Ok { void m() { Cipher c = "
                           "Cipher.getInstance(\"DES\"); } }"}}));
  ScanRequest Request;
  for (const corpus::Project &P : Projects)
    Request.Projects.push_back(&P);
  Scanner S(api());
  ScanReport Report;
  std::string Json = streamScan(S, Request, &Report);
  EXPECT_TRUE(balancedJson(Json));
  ASSERT_EQ(Report.Projects.size(), std::size(Hostile));
  for (const ProjectScanRecord &Rec : Report.Projects)
    EXPECT_NE(Rec.Status, core::ChangeStatus::Ok) << Rec.Project;
  // The streamed and batch serializations agree even on hostile content.
  EXPECT_EQ(Json, scanReportToJson(Report));
}

TEST(ScanEdgeCases, RuleFilterSelectsSubsetInSetOrder) {
  corpus::Corpus C = smallCorpus(8, 11);
  ScanRequest Request = requestOver(C);
  Request.RuleFilter = {"R5", "R1", "no-such-rule"};
  Scanner S(api());
  ScanReport Report = S.scan(Request);
  // Verdicts follow rule-set order (R1 before R5), not filter order;
  // unknown ids select nothing.
  ASSERT_EQ(Report.Rules.size(), 2u);
  EXPECT_EQ(Report.text(Report.Rules[0].Rule), "R1");
  EXPECT_EQ(Report.text(Report.Rules[1].Rule), "R5");
  for (const ProjectScanRecord &Rec : Report.Projects) {
    ASSERT_EQ(Rec.Report.verdicts().size(), 2u);
    EXPECT_EQ(Rec.Report.text(Rec.Report.verdicts()[0].Rule), "R1");
    EXPECT_EQ(Rec.Report.text(Rec.Report.verdicts()[1].Rule), "R5");
  }
}

//===----------------------------------------------------------------------===//
// Unit cache transparency
//===----------------------------------------------------------------------===//

TEST(ScanCache, WarmAndColdAndUncachedReportsAreByteIdentical) {
  corpus::Corpus C = smallCorpus(10, 5);
  ScanRequest Request = requestOver(C);

  Scanner Cached(api());
  std::string Cold = scanReportToJson(Cached.scan(Request));
  EXPECT_GT(Cached.cachedUnits(), 0u);
  std::string Warm = scanReportToJson(Cached.scan(Request));
  EXPECT_EQ(Cold, Warm);

  // Under an armed parser + interpreter campaign a unit's faults follow
  // its text, so the cache serves the campaign too: a project's record is
  // what a fresh scanner, with nothing cached, gives for that project
  // scanned alone.
  corpus::Corpus Big = smallCorpus(60, 42);
  core::PipelineConfig Armed;
  Armed.Faults.Seed = 42;
  Armed.Faults.Rate = 0.002;
  Armed.Faults.SiteMask = support::faultSiteBit(support::FaultSite::Parser) |
                          support::faultSiteBit(support::FaultSite::Interpreter);
  Scanner Campaign(api(), Armed);
  ScanReport ArmedCold = Campaign.scan(requestOver(Big));
  EXPECT_GT(Campaign.cachedUnits(), 0u);
  EXPECT_GT(ArmedCold.StatusCounts[static_cast<unsigned>(
                core::ChangeStatus::AnalysisThrow)],
            0u);
  EXPECT_EQ(scanReportToJson(Campaign.scan(requestOver(Big))),
            scanReportToJson(ArmedCold));
  for (std::size_t I = 0; I < Big.Projects.size(); ++I) {
    ScanRequest Alone;
    Alone.Projects = {&Big.Projects[I]};
    ScanReport Fresh = Scanner(api(), Armed).scan(Alone);
    EXPECT_EQ(recordJson(Fresh.Projects[0]),
              recordJson(ArmedCold.Projects[I]))
        << Big.Projects[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Fault campaigns
//===----------------------------------------------------------------------===//

TEST(ScanFaults, CampaignIsDeterministicAcrossThreadCounts) {
  corpus::Corpus C = smallCorpus(12, 9);
  ScanRequest Request = requestOver(C);
  std::string Baseline;
  for (unsigned Threads : {1u, 2u, 8u}) {
    core::PipelineConfig Config;
    Config.Threads = Threads;
    Config.Faults.Seed = 1234;
    Config.Faults.Rate = 0.5;
    Config.Faults.SiteMask =
        support::faultSiteBit(support::FaultSite::ScanProject);
    Scanner S(api(), Config);
    std::string Json = scanReportToJson(S.scan(Request));
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Json, Baseline) << Threads << " threads";
  }
  // The campaign actually bit: some project must be AnalysisThrow.
  EXPECT_NE(Baseline.find("\"status\":\"analysis-throw\""), std::string::npos);
}

TEST(ScanFaults, DisabledPlanMatchesNoPlanByteForByte) {
  corpus::Corpus C = smallCorpus(6, 2);
  ScanRequest Request = requestOver(C);
  Scanner Plain(api());
  core::PipelineConfig Disabled;
  Disabled.Faults.Seed = 99; // Rate stays 0: disabled
  Scanner WithPlan(api(), Disabled);
  EXPECT_EQ(scanReportToJson(Plain.scan(Request)),
            scanReportToJson(WithPlan.scan(Request)));
}

//===----------------------------------------------------------------------===//
// Refinement on hand-built abstract state
//===----------------------------------------------------------------------===//

namespace {

/// Builds the divergence refinement exists to catch: one Cipher object
/// whose merged log satisfies getInstance AND init, but whose two
/// executions each carry only one of them — the merged-log match is an
/// artifact no single execution reproduces.
analysis::AnalysisResult splitExecutionResult(bool AlsoSatisfiable) {
  analysis::AnalysisResult Result;
  java::SourceLocation L5;
  L5.Line = 5;
  L5.Column = 1;
  unsigned Obj = Result.Objects.getOrCreate(L5, "Cipher");
  analysis::UsageEvent GetInstance{
      "Cipher.getInstance/1", {analysis::AbstractValue::strConst("DES")}};
  analysis::UsageEvent Init{"Cipher.init/1",
                            {analysis::AbstractValue::intConst(1)}};
  analysis::UsageLog Exec1, Exec2;
  Exec1[Obj] = {GetInstance};
  Exec2[Obj] = {Init};
  Result.Executions.push_back(std::move(Exec1));
  Result.Executions.push_back(std::move(Exec2));
  if (AlsoSatisfiable) {
    // A second object that genuinely does both in one execution.
    java::SourceLocation L9;
    L9.Line = 9;
    L9.Column = 1;
    unsigned Real = Result.Objects.getOrCreate(L9, "Cipher");
    analysis::UsageLog Exec3;
    Exec3[Real] = {GetInstance, Init};
    Result.Executions.push_back(std::move(Exec3));
  }
  return Result;
}

rules::Rule bothCallsRule() {
  rules::CallPattern GetInstance;
  GetInstance.ClassName = "Cipher";
  GetInstance.MethodName = "getInstance";
  rules::CallPattern Init;
  Init.ClassName = "Cipher";
  Init.MethodName = "init";
  rules::Rule R;
  R.Id = "X1";
  R.Description = "getInstance and init on one object";
  rules::Rule::Clause C;
  C.TypeName = "Cipher";
  C.Formula = rules::ObjectFormula::all(
      {rules::ObjectFormula::exists(std::move(GetInstance)),
       rules::ObjectFormula::exists(std::move(Init))});
  R.Clauses.push_back(std::move(C));
  return R;
}

} // namespace

TEST(ScanRefinement, MergedLogArtifactIsDemotedWithRefinementOn) {
  analysis::AnalysisResult Result = splitExecutionResult(false);
  auto Symbols = std::make_shared<rules::ScanSymbols>();
  rules::CompiledRuleSet Set =
      rules::CompiledRuleSet::compile({bothCallsRule()}, Symbols);
  rules::UnitFacts Facts =
      rules::UnitFacts::from(Result, /*KeepExecutions=*/true);

  rules::ProjectReport Plain =
      rules::evaluateProject(Set, {&Facts}, {}, /*Refine=*/false);
  ASSERT_EQ(Plain.verdicts().size(), 1u);
  EXPECT_TRUE(Plain.verdicts()[0].Matched);
  EXPECT_EQ(Plain.verdicts()[0].Violations.size(), 1u);

  rules::ProjectReport Refined =
      rules::evaluateProject(Set, {&Facts}, {}, /*Refine=*/true);
  ASSERT_EQ(Refined.verdicts().size(), 1u);
  const rules::RuleVerdict &V = Refined.verdicts()[0];
  EXPECT_TRUE(V.Applicable); // applicability never refines
  EXPECT_FALSE(V.Matched);   // the only witness was a merge artifact
  EXPECT_TRUE(V.Violations.empty());
  EXPECT_EQ(V.Suppressed, 1u);
  EXPECT_FALSE(Refined.anyMatch());
}

TEST(ScanRefinement, ReproducibleWitnessSurvivesNextToSuppressedOne) {
  analysis::AnalysisResult Result = splitExecutionResult(true);
  auto Symbols = std::make_shared<rules::ScanSymbols>();
  rules::CompiledRuleSet Set =
      rules::CompiledRuleSet::compile({bothCallsRule()}, Symbols);
  rules::UnitFacts Facts = rules::UnitFacts::from(Result, true);

  rules::ProjectReport Plain =
      rules::evaluateProject(Set, {&Facts}, {}, false);
  ASSERT_EQ(Plain.verdicts()[0].Violations.size(), 2u);

  rules::ProjectReport Refined =
      rules::evaluateProject(Set, {&Facts}, {}, true);
  const rules::RuleVerdict &V = Refined.verdicts()[0];
  EXPECT_TRUE(V.Matched); // one genuine witness keeps the match
  ASSERT_EQ(V.Violations.size(), 1u);
  EXPECT_EQ(Refined.text(V.Violations[0].Site), "l9");
  EXPECT_EQ(V.Suppressed, 1u);
}

TEST(ScanRefinement, ObjectsWithoutExecutionDataAreConservativelyKept) {
  // Digesting with KeepExecutions=false leaves no per-execution lists;
  // refinement cannot disprove anything and must keep every witness.
  analysis::AnalysisResult Result = splitExecutionResult(false);
  auto Symbols = std::make_shared<rules::ScanSymbols>();
  rules::CompiledRuleSet Set =
      rules::CompiledRuleSet::compile({bothCallsRule()}, Symbols);
  rules::UnitFacts Facts =
      rules::UnitFacts::from(Result, /*KeepExecutions=*/false);
  rules::ProjectReport Refined =
      rules::evaluateProject(Set, {&Facts}, {}, /*Refine=*/true);
  const rules::RuleVerdict &V = Refined.verdicts()[0];
  EXPECT_TRUE(V.Matched);
  EXPECT_EQ(V.Violations.size(), 1u);
  EXPECT_EQ(V.Suppressed, 0u);
}

TEST(ScanRefinement, RefineOffScanOfRealCorpusIsByteIdenticalToBatch) {
  // End-to-end: a scanner with Refine=false must equal the serial
  // checker (covered above) and a Refine=true scan must only ever
  // shrink violation sets.
  corpus::Corpus C = smallCorpus(10, 21);
  Scanner S(api());
  ScanReport Plain = S.scan(requestOver(C, false));
  ScanReport Refined = S.scan(requestOver(C, true));
  ASSERT_EQ(Plain.Projects.size(), Refined.Projects.size());
  for (std::size_t I = 0; I < Plain.Projects.size(); ++I) {
    const auto &Before = Plain.Projects[I].Report.verdicts();
    const auto &After = Refined.Projects[I].Report.verdicts();
    ASSERT_EQ(Before.size(), After.size());
    for (std::size_t J = 0; J < Before.size(); ++J) {
      EXPECT_EQ(After[J].Applicable, Before[J].Applicable);
      EXPECT_EQ(After[J].Violations.size() + After[J].Suppressed,
                Before[J].Violations.size());
    }
  }
}

TEST(ScanRefinement, RealAnalyzerForksDecideARefinedVerdict) {
  // No clause of R1-R13 is a conjunction, and every event of a merged log
  // comes from some execution's log, so with the built-in rules a refined
  // scan equals the plain one. This clause is a conjunction, and the
  // Cipher below is init-ed on one branch of an `if` and updated on the
  // other: the interpreter's two forked logs each hold one of the calls,
  // their merge holds both.
  rules::CallPattern Init, Update;
  Init.ClassName = "Cipher";
  Init.MethodName = "init";
  Update.ClassName = "Cipher";
  Update.MethodName = "update";
  rules::Rule R;
  R.Id = "X2";
  R.Description = "init and update on one object";
  rules::Rule::Clause C;
  C.TypeName = "Cipher";
  C.Formula = rules::ObjectFormula::all(
      {rules::ObjectFormula::exists(std::move(Init)),
       rules::ObjectFormula::exists(std::move(Update))});
  R.Clauses.push_back(std::move(C));
  Scanner S(api(), {}, {R});

  const std::string Split =
      "class A { void m(boolean f, Key k, byte[] b) throws Exception {\n"
      "Cipher c = Cipher.getInstance(\"AES\");\n"
      "if (f) { c.init(1, k); } else { c.update(b); }\n";
  const std::string OnePath = "Cipher d = Cipher.getInstance(\"AES\");\n"
                              "d.init(1, k); d.update(b);\n";
  corpus::Project SplitOnly =
      projectOf("split", {{"A.java", Split + "} }"}});
  corpus::Project WithBoth =
      projectOf("both", {{"A.java", Split + OnePath + "} }"}});
  ScanRequest Plain;
  Plain.Projects = {&SplitOnly, &WithBoth};
  ScanRequest Refined = Plain;
  Refined.Refine = true;

  ScanReport Off = S.scan(Plain);
  ScanReport On = S.scan(Refined);
  ASSERT_EQ(Off.Projects.size(), 2u);
  ASSERT_EQ(On.Projects.size(), 2u);
  for (const ScanReport *Report : {&Off, &On})
    for (const ProjectScanRecord &P : Report->Projects) {
      EXPECT_EQ(P.Status, core::ChangeStatus::Ok) << P.Detail;
      ASSERT_EQ(P.Report.verdicts().size(), 1u);
      EXPECT_TRUE(P.Report.verdicts()[0].Applicable);
    }

  // The split Cipher alone: a merge artifact, demoted once refined.
  const rules::RuleVerdict &SplitOff = Off.Projects[0].Report.verdicts()[0];
  EXPECT_TRUE(SplitOff.Matched);
  ASSERT_EQ(SplitOff.Violations.size(), 1u);
  EXPECT_EQ(Off.Projects[0].Report.text(SplitOff.Violations[0].Site), "l2");
  EXPECT_EQ(SplitOff.Suppressed, 0u);
  const rules::RuleVerdict &SplitOn = On.Projects[0].Report.verdicts()[0];
  EXPECT_FALSE(SplitOn.Matched);
  EXPECT_TRUE(SplitOn.Violations.empty());
  EXPECT_EQ(SplitOn.Suppressed, 1u);

  // Next to a Cipher making both calls on one path, that one survives.
  const rules::RuleVerdict &BothOff = Off.Projects[1].Report.verdicts()[0];
  EXPECT_TRUE(BothOff.Matched);
  EXPECT_EQ(BothOff.Violations.size(), 2u);
  const rules::RuleVerdict &BothOn = On.Projects[1].Report.verdicts()[0];
  EXPECT_TRUE(BothOn.Matched);
  ASSERT_EQ(BothOn.Violations.size(), 1u);
  EXPECT_EQ(On.Projects[1].Report.text(BothOn.Violations[0].Site), "l4");
  EXPECT_EQ(BothOn.Suppressed, 1u);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ScanMetrics, ObservedRunCarriesPerRuleCountersAndUnobservedIsPrefix) {
  corpus::Corpus C = smallCorpus(6, 13);
  ScanRequest Request = requestOver(C);

  Scanner Plain(api());
  std::string Unobserved = scanReportToJson(Plain.scan(Request));

  obs::Observer Obs;
  Request.Metrics = &Obs;
  Scanner S(api());
  ScanReport Report = S.scan(Request);
  ASSERT_FALSE(Report.Metrics.empty());
  std::string Snapshot = Report.Metrics.json();
  for (const char *Name : {"scan.projects", "scan.units", "scan.rule.R1.applicable",
                           "scan.rule.R13.violations", "threadpool.batches"})
    EXPECT_NE(Snapshot.find(Name), std::string::npos) << Name;

  // The unobserved report is a byte prefix of the observed one: metrics
  // are additive, never reshaping.
  std::string ObservedJson = scanReportToJson(Report);
  ASSERT_GT(ObservedJson.size(), Unobserved.size());
  EXPECT_EQ(ObservedJson.compare(0, Unobserved.size() - 1, Unobserved, 0,
                                 Unobserved.size() - 1),
            0);
}
