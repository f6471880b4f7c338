//===- tests/test_diffcode_integration.cpp - End-to-end pipeline tests -----===//

#include "core/DiffCode.h"

#include "NaiveClustering.h"
#include "cluster/Distance.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "obs/Observer.h"
#include "rules/BuiltinRules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

corpus::CodeChange change(const char *OldCode, const char *NewCode) {
  corpus::CodeChange C;
  C.ProjectName = "test";
  C.OldCode = OldCode;
  C.NewCode = NewCode;
  return C;
}

const char *Figure2Old = R"java(
class AESCipher {
    Cipher enc;
    Cipher dec;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key);
        } catch (Exception e) {
        }
    }
}
)java";

const char *Figure2New = R"java(
class AESCipher {
    Cipher enc;
    Cipher dec;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        byte[] ivBytes;
        IvParameterSpec ivSpec;
        try {
            ivBytes = Hex.decodeHex(iv.toCharArray());
            ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
            dec = Cipher.getInstance(algorithm);
            dec.init(Cipher.DECRYPT_MODE, key, ivSpec);
        } catch (Exception e) {
        }
    }
}
)java";

std::vector<const rules::Rule *> elicitedRulePointers() {
  std::vector<const rules::Rule *> Rules;
  for (const rules::Rule &R : rules::elicitedRules())
    Rules.push_back(&R);
  return Rules;
}

/// What an observed analyzeChanges run counted: its version counters and
/// the loop's claims.
struct StoreCounts {
  std::uint64_t Analyzed = 0, Reused = 0, Claims = 0;
  bool operator==(const StoreCounts &) const = default;
};

StoreCounts countsOf(const obs::Observer &Obs) {
  StoreCounts Out;
  for (const obs::MetricValue &V : Obs.Metrics.snapshot().Values) {
    if (V.Name == "pipeline.versions_analyzed") {
      Out.Analyzed = V.Count;
      EXPECT_EQ(V.S, obs::Stability::Deterministic);
    } else if (V.Name == "pipeline.versions_reused") {
      Out.Reused = V.Count;
      EXPECT_EQ(V.S, obs::Stability::Deterministic);
    } else if (V.Name == "threadpool.chunks") {
      Out.Claims = V.Count;
    }
  }
  return Out;
}

/// Whether analyzing \p Text throws under the calling thread's fault
/// context.
bool analysisThrows(const DiffCode &System, std::string_view Text) {
  try {
    System.analyzeSourceChecked(Text);
  } catch (const std::exception &) {
    return true;
  }
  return false;
}

/// Runs analyzeChanges over \p Changes at 1, 2 and 8 threads, classifying
/// under R1-R13, and expects every record to equal, as JSON, what
/// processChange gives for that change alone under the same fault scope:
/// processChange shares no work between changes, so it is the oracle
/// for the version store. Returns the observed counts, which must not
/// move with the thread count.
StoreCounts expectStoreMatchesProcessChange(
    const std::vector<const corpus::CodeChange *> &Changes,
    const support::FaultPlan &Faults = {}) {
  PipelineRequest Request;
  Request.Changes = Changes;
  Request.TargetClasses = api().targetClasses();
  Request.ClassifyWith = elicitedRulePointers();
  PipelineConfig OracleConfig;
  OracleConfig.Faults = Faults;
  DiffCode Oracle(api(), OracleConfig);
  std::vector<std::string> Expected;
  // Every change asks for both its versions, except that one whose old
  // side throws never asks for its new side.
  std::uint64_t VersionsAsked = 0;
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    support::FaultScope Scope(&Oracle.config().Faults, I);
    Expected.push_back(changeRecordToJson(
        Oracle.processChange(*Changes[I], Request.TargetClasses,
                             Request.ClassifyWith, *Oracle.labels())));
    VersionsAsked += analysisThrows(Oracle, Changes[I]->OldCode) ? 1 : 2;
  }

  std::optional<StoreCounts> Counts;
  for (unsigned Threads : {1u, 2u, 8u}) {
    PipelineConfig Config;
    Config.Threads = Threads;
    Config.Faults = Faults;
    DiffCode System(api(), Config);
    obs::Observer Obs;
    Request.Metrics = &Obs;
    std::vector<ChangeRecord> Records = System.analyzeChanges(Request);
    EXPECT_EQ(Records.size(), Changes.size());
    for (std::size_t I = 0; I < std::min(Records.size(), Changes.size()); ++I)
      EXPECT_EQ(changeRecordToJson(Records[I]), Expected[I])
          << Threads << " threads, change " << I;
    StoreCounts Run = countsOf(Obs);
    EXPECT_EQ(Run.Analyzed + Run.Reused, VersionsAsked);
    if (!Counts)
      Counts = Run;
    EXPECT_EQ(Run, *Counts) << Threads << " threads";
  }
  return *Counts;
}

/// A Cipher user whose transformation string is \p Transformation.
std::string cipherUnit(const std::string &Transformation) {
  return "class A { void m(Key k) throws Exception { Cipher c = "
         "Cipher.getInstance(\"" +
         Transformation + "\"); c.init(Cipher.ENCRYPT_MODE, k); } }";
}

corpus::CodeChange fileChange(std::string Project, std::string File,
                              unsigned Commit, std::string OldCode,
                              std::string NewCode) {
  corpus::CodeChange C;
  C.ProjectName = std::move(Project);
  C.FileName = std::move(File);
  C.CommitIndex = Commit;
  C.OldCode = std::move(OldCode);
  C.NewCode = std::move(NewCode);
  return C;
}

std::vector<const corpus::CodeChange *>
pointersTo(const std::vector<corpus::CodeChange> &Changes) {
  std::vector<const corpus::CodeChange *> Out;
  for (const corpus::CodeChange &C : Changes)
    Out.push_back(&C);
  return Out;
}

} // namespace

TEST(DiffCodeE2E, Figure2UsageChange) {
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes =
      System.usageChangesFor(change(Figure2Old, Figure2New), "Cipher");
  // Two Cipher objects -> two usage changes (enc and dec).
  ASSERT_EQ(Changes.size(), 2u);

  std::set<std::string> RemovedStrs, AddedStrs;
  for (const usage::FeaturePath &P : Changes[0].removedPaths())
    RemovedStrs.insert(usage::pathToString(P));
  for (const usage::FeaturePath &P : Changes[0].addedPaths())
    AddedStrs.insert(usage::pathToString(P));

  // Figure 2(d): the exact removed and added features.
  EXPECT_TRUE(RemovedStrs.count("Cipher Cipher.getInstance arg1:AES"));
  EXPECT_TRUE(
      AddedStrs.count("Cipher Cipher.getInstance arg1:AES/CBC/PKCS5Padding"));
  EXPECT_TRUE(AddedStrs.count("Cipher Cipher.init arg3:IvParameterSpec"));
  EXPECT_EQ(RemovedStrs.size(), 1u);
  EXPECT_EQ(AddedStrs.size(), 2u);
}

TEST(DiffCodeE2E, Figure2IvParameterSpecSideChannel) {
  // The same commit also yields an IvParameterSpec usage change (a pure
  // addition, filtered by fadd).
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes = System.usageChangesFor(
      change(Figure2Old, Figure2New), "IvParameterSpec");
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].Removed.empty());
  EXPECT_FALSE(Changes[0].Added.empty());
}

TEST(DiffCodeE2E, RefactoringIsFsame) {
  const char *Old =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.ENCRYPT_MODE, k); } }";
  // Rename everything, extract a constant, wrap in try/catch.
  const char *New =
      "class A { static final String ALGO = \"AES\"; "
      "void configure(Key secret) { try { "
      "Cipher cipher = Cipher.getInstance(ALGO); "
      "cipher.init(Cipher.ENCRYPT_MODE, secret); "
      "} catch (Exception error) { } } }";
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes =
      System.usageChangesFor(change(Old, New), "Cipher");
  for (const usage::UsageChange &C : Changes)
    EXPECT_TRUE(C.isEmpty()) << C.str();
}

TEST(DiffCodeE2E, HelperExtractionIsFsame) {
  const char *Old =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = Cipher.getInstance(\"AES\"); "
      "c.init(Cipher.ENCRYPT_MODE, k); } }";
  const char *New =
      "class A { void m(Key k) throws Exception { "
      "Cipher c = make(); c.init(Cipher.ENCRYPT_MODE, k); } "
      "private Cipher make() throws Exception { "
      "return Cipher.getInstance(\"AES\"); } }";
  DiffCode System(api());
  for (const usage::UsageChange &C :
       System.usageChangesFor(change(Old, New), "Cipher"))
    EXPECT_TRUE(C.isEmpty()) << C.str();
}

TEST(DiffCodeE2E, ProcessChangeClassifies) {
  DiffCode System(api());
  std::vector<const rules::Rule *> CLRules;
  for (const rules::Rule &R : rules::cryptoLintRules())
    CLRules.push_back(&R);
  ChangeRecord Record =
      System.processChange(change(Figure2Old, Figure2New),
                           api().targetClasses(), CLRules, *System.labels());
  ASSERT_TRUE(Record.Classification.count("CL1"));
  EXPECT_EQ(Record.Classification.at("CL1"),
            rules::ChangeClass::SecurityFix);
  EXPECT_EQ(Record.Classification.at("CL4"),
            rules::ChangeClass::NonSemantic);
  EXPECT_TRUE(Record.PerClass.count("Cipher"));
}

TEST(DiffCodeE2E, AssembleChangeComparesTheVersionsVerdicts) {
  // The per-version stage takes each rule's verdict once; the per-change
  // stage only compares two of them, and refuses versions analyzed
  // without the rules it is asked to classify with.
  DiffCode System(api());
  std::vector<const rules::Rule *> CLRules;
  for (const rules::Rule &R : rules::cryptoLintRules())
    CLRules.push_back(&R);
  corpus::CodeChange C = change(Figure2Old, Figure2New);
  java::AstContext Ctx;
  AnalyzedVersion Old =
      System.analyzeVersion(C.OldCode, Ctx, api().targetClasses(), CLRules);
  AnalyzedVersion New =
      System.analyzeVersion(C.NewCode, Ctx, api().targetClasses(), CLRules);
  ASSERT_EQ(Old.Verdicts.size(), CLRules.size());
  EXPECT_TRUE(Old.Facts.Objects.empty()); // the digest is not kept
  ChangeRecord Record = System.assembleChange(
      C, Old, New, api().targetClasses(), CLRules, *System.labels());
  EXPECT_EQ(Record.Classification.at("CL1"),
            rules::ChangeClass::SecurityFix);
  EXPECT_EQ(Record.Classification,
            System
                .processChange(C, api().targetClasses(), CLRules,
                               *System.labels())
                .Classification);

  AnalyzedVersion Bare =
      System.analyzeVersion(C.NewCode, Ctx, api().targetClasses(), {});
  EXPECT_TRUE(Bare.Verdicts.empty());
  EXPECT_THROW(System.assembleChange(C, Old, Bare, api().targetClasses(),
                                     CLRules, *System.labels()),
               std::invalid_argument);
}

TEST(DiffCodeE2E, EmptySourcesHandled) {
  DiffCode System(api());
  analysis::AnalysisResult Empty = System.analyzeSourceChecked("").Result;
  EXPECT_EQ(Empty.Objects.size(), 0u);
  std::vector<usage::UsageChange> Changes = System.usageChangesFor(
      change("", "class A { Cipher c; void m() throws Exception { "
                 "c = Cipher.getInstance(\"AES\"); } }"),
      "Cipher");
  ASSERT_EQ(Changes.size(), 1u);
  EXPECT_TRUE(Changes[0].Removed.empty());
  EXPECT_FALSE(Changes[0].Added.empty());
}

TEST(DiffCodeE2E, BrokenSourceDoesNotCrash) {
  DiffCode System(api());
  std::vector<usage::UsageChange> Changes = System.usageChangesFor(
      change("class A { void m( { Cipher c = Cipher.getInstance(\"AES\" }",
             "class ??? !!!"),
      "Cipher");
  SUCCEED();
}

TEST(DiffCodeE2E, PipelineOverSmallCorpus) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 17;
  Opts.NumProjects = 10;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  DiffCode System(api());
  std::vector<const rules::Rule *> CLRules;
  for (const rules::Rule &R : rules::cryptoLintRules())
    CLRules.push_back(&R);
  CorpusReport Report = System.run({.Changes = Mined,
                                            .TargetClasses = api().targetClasses(),
                                            .ClassifyWith = CLRules});

  ASSERT_EQ(Report.PerClass.size(), 6u);
  EXPECT_EQ(Report.Changes.size(), Mined.size());

  for (const ClassReport &Class : Report.PerClass) {
    // Filter stage counts are monotonically non-increasing.
    EXPECT_LE(Class.Filtered.AfterSame, Class.Filtered.Total);
    EXPECT_LE(Class.Filtered.AfterAdd, Class.Filtered.AfterSame);
    EXPECT_LE(Class.Filtered.AfterRem, Class.Filtered.AfterAdd);
    EXPECT_LE(Class.Filtered.AfterDup, Class.Filtered.AfterRem);
    EXPECT_EQ(Class.Filtered.Kept.size(), Class.Filtered.AfterDup);
    // fsame removes the large majority.
    if (Class.Filtered.Total > 20)
      EXPECT_LT(Class.Filtered.AfterSame * 2, Class.Filtered.Total);
  }
}

TEST(DiffCodeE2E, GroundTruthFixesSurviveFilters) {
  // The paper's key validation: filters remove non-semantic changes but
  // never a (non-duplicate) security fix. We check it against the
  // generator's ground truth.
  corpus::CorpusOptions Opts;
  Opts.Seed = 23;
  Opts.NumProjects = 15;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  DiffCode System(api());

  for (const corpus::Project &P : C.Projects) {
    for (const corpus::CodeChange &Change : P.History) {
      if (!Change.isGroundTruthFix())
        continue;
      // A fix must produce at least one usage change that passes the
      // solo filters (non-empty F- and F+) for some target class.
      bool Survives = false;
      for (const std::string &Target : api().targetClasses())
        for (const usage::UsageChange &UC :
             System.usageChangesFor(Change, Target))
          Survives = Survives || classifySolo(UC) == FilterStage::Kept;
      EXPECT_TRUE(Survives) << Change.origin() << " " << Change.Kind;
    }
  }
}

TEST(DiffCodeE2E, RefactoringsNeverSurviveFilters) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 29;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  DiffCode System(api());

  unsigned CheckedRefactors = 0;
  for (const corpus::Project &P : C.Projects) {
    for (const corpus::CodeChange &Change : P.History) {
      if (Change.Kind != "refactor" || CheckedRefactors > 40)
        continue;
      ++CheckedRefactors;
      for (const std::string &Target : api().targetClasses())
        for (const usage::UsageChange &UC :
             System.usageChangesFor(Change, Target))
          EXPECT_EQ(classifySolo(UC), FilterStage::FSame)
              << Change.origin() << " " << Target << "\n" << UC.str();
    }
  }
  EXPECT_GT(CheckedRefactors, 10u);
}

TEST(DiffCodeE2E, PipelineDeterminism) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 41;
  Opts.NumProjects = 5;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  DiffCode System(api());
  CorpusReport A =
      System.run({.Changes = Mined, .TargetClasses = {"Cipher"}});
  CorpusReport B =
      System.run({.Changes = Mined, .TargetClasses = {"Cipher"}});
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  EXPECT_EQ(A.PerClass[0].Filtered.Total, B.PerClass[0].Filtered.Total);
  EXPECT_EQ(A.PerClass[0].Filtered.AfterDup,
            B.PerClass[0].Filtered.AfterDup);
  ASSERT_EQ(A.PerClass[0].Filtered.Kept.size(),
            B.PerClass[0].Filtered.Kept.size());
  for (std::size_t I = 0; I < A.PerClass[0].Filtered.Kept.size(); ++I)
    EXPECT_TRUE(A.PerClass[0].Filtered.Kept[I].sameFeatures(
        B.PerClass[0].Filtered.Kept[I]));
}

TEST(DiffCodeE2E, ParallelPipelineMatchesSerial) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 47;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);

  // Every record the grouped, version-reusing loop produces is the one
  // processChange produces alone, at every thread count; and consecutive
  // commits to a file do share versions here.
  StoreCounts Counts = expectStoreMatchesProcessChange(Mined);
  EXPECT_GT(Counts.Reused, 0u);
  EXPECT_LT(Counts.Claims, Mined.size());

  PipelineConfig Serial;
  Serial.Threads = 1;
  PipelineConfig Parallel;
  Parallel.Threads = 4;
  CorpusReport A = DiffCode(api(), Serial)
                       .run({.Changes = Mined,
                                     .TargetClasses = api().targetClasses()});
  CorpusReport B = DiffCode(api(), Parallel)
                       .run({.Changes = Mined,
                                     .TargetClasses = api().targetClasses()});

  ASSERT_EQ(A.Changes.size(), B.Changes.size());
  for (std::size_t I = 0; I < A.Changes.size(); ++I)
    EXPECT_EQ(A.Changes[I].Origin, B.Changes[I].Origin);
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  for (std::size_t I = 0; I < A.PerClass.size(); ++I) {
    EXPECT_EQ(A.PerClass[I].Filtered.Total, B.PerClass[I].Filtered.Total);
    EXPECT_EQ(A.PerClass[I].Filtered.AfterDup,
              B.PerClass[I].Filtered.AfterDup);
    ASSERT_EQ(A.PerClass[I].Filtered.Kept.size(),
              B.PerClass[I].Filtered.Kept.size());
    for (std::size_t J = 0; J < A.PerClass[I].Filtered.Kept.size(); ++J)
      EXPECT_TRUE(A.PerClass[I].Filtered.Kept[J].sameFeatures(
          B.PerClass[I].Filtered.Kept[J]));
  }
}

TEST(DiffCodeE2E, ThreadedPipelineReportIsByteIdentical) {
  // The strongest determinism statement: the threaded pipeline must
  // reproduce the serial run's CorpusReport JSON byte for byte and the
  // per-class dendrograms node for node, and every class's tree must be
  // the naive oracle's agglomeration of its kept changes.
  corpus::CorpusOptions Opts;
  Opts.Seed = 53;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  PipelineConfig Serial;
  Serial.Threads = 1;

  PipelineConfig Threaded;
  Threaded.Threads = 8;

  core::PipelineRequest Request{.Changes = Mined,
                                .TargetClasses = api().targetClasses()};
  CorpusReport A = DiffCode(api(), Serial).run(Request);
  CorpusReport B = DiffCode(api(), Threaded).run(Request);

  EXPECT_EQ(corpusReportToJson(A), corpusReportToJson(B));

  // The JSON omits the trees, so compare those explicitly.
  ASSERT_EQ(A.PerClass.size(), B.PerClass.size());
  for (std::size_t I = 0; I < A.PerClass.size(); ++I) {
    const ClassReport &Class = A.PerClass[I];
    const auto &TA = Class.Tree.nodes();
    const auto &TB = B.PerClass[I].Tree.nodes();
    ASSERT_EQ(TA.size(), TB.size()) << Class.TargetClass;
    for (std::size_t K = 0; K < TA.size(); ++K) {
      EXPECT_EQ(TA[K].Left, TB[K].Left);
      EXPECT_EQ(TA[K].Right, TB[K].Right);
      EXPECT_EQ(TA[K].Item, TB[K].Item);
      EXPECT_EQ(TA[K].Height, TB[K].Height);
    }

    const std::vector<usage::UsageChange> &Kept = Class.Filtered.Kept;
    std::vector<double> D = cluster::pairwiseDistanceMatrix(
        Kept.size(), [&](std::size_t X, std::size_t Y) {
          return cluster::usageDist(Kept[X], Kept[Y]);
        });
    ASSERT_TRUE(oracle::hasEngineLayout(Class.Tree)) << Class.TargetClass;
    EXPECT_EQ(oracle::mergesOf(Class.Tree),
              oracle::naiveMerges(Kept.size(), D))
        << Class.TargetClass;
  }
}

TEST(DiffCodeE2E, StageEntryPointsComposeToRunPipeline) {
  // The redesigned API contract: run(Request) is exactly
  // analyzeChanges + per-class filterClass/clusterClass + the health
  // rollup. Composing the stages by hand reproduces it byte for byte.
  corpus::CorpusOptions Opts;
  Opts.Seed = 61;
  Opts.NumProjects = 6;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  DiffCode System(api());
  PipelineRequest Request{.Changes = Mined,
                          .TargetClasses = api().targetClasses()};

  CorpusReport Whole = System.run(Request);

  CorpusReport Staged;
  Staged.Changes = System.analyzeChanges(Request);
  for (const std::string &Target : Request.TargetClasses) {
    Staged.PerClass.push_back(System.filterClass(Staged.Changes, Target));
    System.clusterClass(Staged.PerClass.back());
  }
  computeCorpusHealth(Staged);

  EXPECT_EQ(corpusReportToJson(Whole), corpusReportToJson(Staged));
  ASSERT_EQ(Whole.PerClass.size(), Staged.PerClass.size());
  for (std::size_t I = 0; I < Whole.PerClass.size(); ++I) {
    const auto &TA = Whole.PerClass[I].Tree.nodes();
    const auto &TB = Staged.PerClass[I].Tree.nodes();
    ASSERT_EQ(TA.size(), TB.size());
    for (std::size_t K = 0; K < TA.size(); ++K) {
      EXPECT_EQ(TA[K].Left, TB[K].Left);
      EXPECT_EQ(TA[K].Right, TB[K].Right);
      EXPECT_EQ(TA[K].Item, TB[K].Item);
      EXPECT_EQ(TA[K].Height, TB[K].Height);
    }
  }
}

TEST(DiffCodeE2E, StoreAnalyzesAnUnchangedFileOnce) {
  // Old and new texts are equal: one analysis serves both sides.
  std::vector<corpus::CodeChange> Changes = {
      fileChange("p", "A.java", 1, cipherUnit("AES"), cipherUnit("AES"))};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 1u);
  EXPECT_EQ(Counts.Reused, 1u);
}

TEST(DiffCodeE2E, StoreKeepsFileHistoriesApart) {
  // One text in two files of one project and in a second project: each
  // history is its own group on its own store, so the shared text is
  // analyzed once per history, and every record is still processChange's.
  const std::string Shared = cipherUnit("DES");
  std::vector<corpus::CodeChange> Changes = {
      fileChange("p", "A.java", 1, Shared, cipherUnit("AES/GCM/NoPadding")),
      fileChange("p", "B.java", 1, Shared, cipherUnit("AES/CBC/PKCS5Padding")),
      fileChange("q", "A.java", 1, cipherUnit("RC4"), Shared)};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 6u);
  EXPECT_EQ(Counts.Reused, 0u);
  EXPECT_EQ(Counts.Claims, 3u);
}

TEST(DiffCodeE2E, StoreReusesInterleavedChains) {
  // A -> B -> C in A.java, interleaved with X -> Y -> Z in B.java: each
  // middle version is analyzed once and served again to the next commit.
  std::vector<corpus::CodeChange> Changes = {
      fileChange("p", "A.java", 1, cipherUnit("DES"), cipherUnit("AES")),
      fileChange("p", "B.java", 1, cipherUnit("RC4"), cipherUnit("AES/ECB")),
      fileChange("p", "A.java", 2, cipherUnit("AES"), cipherUnit("AES/GCM")),
      fileChange("p", "B.java", 2, cipherUnit("AES/ECB"),
                 cipherUnit("AES/CTR"))};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 6u);
  EXPECT_EQ(Counts.Reused, 2u);
  EXPECT_EQ(Counts.Claims, 2u);
  // The reused versions carry Cipher DAGs, so the records compared above
  // hold real usage changes.
  DiffCode System(api());
  ChangeRecord Middle = System.processChange(
      Changes[2], api().targetClasses(), {}, *System.labels());
  ASSERT_EQ(Middle.PerClass.count("Cipher"), 1u);
  EXPECT_FALSE(Middle.PerClass.at("Cipher").front().Removed.empty());
}

TEST(DiffCodeE2E, StoreKeepsOnlyThePreviousChangesVersions) {
  // A -> B -> C -> A in one file: each commit's old side is the previous
  // commit's new side, but the store has dropped A by the time the third
  // commit restores it, so A is analyzed again.
  std::vector<corpus::CodeChange> Changes = {
      fileChange("p", "A.java", 1, cipherUnit("DES"), cipherUnit("AES")),
      fileChange("p", "A.java", 2, cipherUnit("AES"), cipherUnit("RC4")),
      fileChange("p", "A.java", 3, cipherUnit("RC4"), cipherUnit("DES"))};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 4u);
  EXPECT_EQ(Counts.Reused, 2u);
  EXPECT_EQ(Counts.Claims, 1u);
}

TEST(DiffCodeE2E, UnnamedChangesFormOneSerialGroup) {
  // Changes with empty project and file names share one history: one
  // claim, one store, every version reused across the batch.
  std::vector<corpus::CodeChange> Changes = {
      fileChange("", "", 0, cipherUnit("DES"), cipherUnit("AES")),
      fileChange("", "", 0, cipherUnit("AES"), cipherUnit("DES")),
      fileChange("", "", 0, cipherUnit("DES"), cipherUnit("AES"))};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 2u);
  EXPECT_EQ(Counts.Reused, 4u);
  EXPECT_EQ(Counts.Claims, 1u);
}

TEST(DiffCodeE2E, StoreHandlesAddedFiles) {
  // An added file diffs against the empty text, which the store analyzes
  // (as the empty result) like any other version; the next commit's old
  // side is the added file.
  std::vector<corpus::CodeChange> Changes = {
      fileChange("p", "A.java", 1, "", cipherUnit("DES")),
      fileChange("p", "A.java", 2, cipherUnit("DES"), cipherUnit("AES")),
      fileChange("p", "B.java", 2, "", cipherUnit("AES"))};
  StoreCounts Counts = expectStoreMatchesProcessChange(pointersTo(Changes));
  EXPECT_EQ(Counts.Analyzed, 5u);
  EXPECT_EQ(Counts.Reused, 1u);
}

TEST(DiffCodeE2E, ArmedPlanReusesVersionsThroughTheStore) {
  // Parse and interpretation faults follow the analyzed text, so under an
  // armed plan the store still serves versions, and every record is
  // still processChange's under the same change scope.
  corpus::CorpusOptions Opts;
  Opts.Seed = 47;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);

  support::FaultPlan Plan;
  Plan.Seed = 11;
  Plan.Rate = 0.002;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::Parser) |
                  support::faultSiteBit(support::FaultSite::Interpreter);
  StoreCounts Counts = expectStoreMatchesProcessChange(Mined, Plan);
  EXPECT_GT(Counts.Reused, 0u);

  // A faulting version that two changes of a history share faults for
  // both: it is the first change's new side and the next one's old side.
  PipelineConfig Config;
  Config.Faults = Plan;
  DiffCode System(api(), Config);
  PipelineRequest Request;
  Request.Changes = Mined;
  Request.TargetClasses = api().targetClasses();
  std::vector<ChangeRecord> Records = System.analyzeChanges(Request);
  // Any scope key: whether a text's analysis throws depends on the text.
  support::FaultScope Scope(&System.config().Faults, 0);
  std::size_t SharedFaults = 0;
  for (const std::vector<std::uint64_t> &History : fileHistories(Mined))
    for (std::size_t K = 1; K < History.size(); ++K) {
      const std::string &Shared = Mined[History[K - 1]]->NewCode;
      if (Shared != Mined[History[K]]->OldCode ||
          !analysisThrows(System, Shared))
        continue;
      ++SharedFaults;
      EXPECT_EQ(Records[History[K - 1]].Status, ChangeStatus::AnalysisThrow);
      EXPECT_EQ(Records[History[K]].Status, ChangeStatus::AnalysisThrow);
    }
  EXPECT_GT(SharedFaults, 0u);
}
