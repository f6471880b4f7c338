//===- tests/test_api_compat.cpp - Deprecated API spellings are gone ------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PR 8 collapsed the pipeline knobs into core::PipelineConfig and the
/// two entry points into DiffCode::run, keeping the old spellings —
/// DiffCodeOptions, the DiffCode(Api, DiffCodeOptions) constructor,
/// options(), and runPipeline() — [[deprecated]] for one release. That
/// release has passed: this suite is now the removal gate. It asserts,
/// via unevaluated requires-expressions, that the old names no longer
/// exist (someone re-adding one breaks the build here first) and that
/// the replacement surface stands. The same probes keep every setting in
/// one home: settings that no caller set (the config-level execution
/// policy, observer and cut, the request's interner, the scanner's cache
/// switch) and entry points that only duplicated others must not resolve
/// again, and the scanner runs on the pipeline's engine config with its
/// observer on the request. Rules have one evaluator, so the
/// symbol-table lookups only the compiled mirror used and the raw-event
/// CallPattern match must not resolve again either. The session keeps no per-change record memo,
/// so its bound, its counters and the session settings nobody set must
/// not resolve again. support::parallelFor is the one parallel loop, so
/// the reusable ThreadPool's header must not come back, and lexAll() is
/// the lexer's one entry point, so Lexer::next() must not resolve again.
/// processChange composes the per-version and per-change stages, which
/// must keep resolving, and the product between them keeps no
/// AnalysisResult.
/// The spellings the benchmark (perfbench/src) calls
/// must keep resolving, so drift on either side breaks this build before
/// the benchmark is ever built.
///
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"

#include "core/ReportWriter.h"
#include "javaast/Lexer.h"
#include "rules/RuleCompiler.h"
#include "scan/Scanner.h"
#include "service/AnalysisSession.h"

#include <gtest/gtest.h>

#include <concepts>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

// Removal probes for the member spellings: each concept is true only if
// the old name still resolves on DiffCode.
template <typename System>
concept HasOptionsAccessor = requires(const System &S) { S.options(); };

template <typename System>
concept HasRunPipeline =
    requires(const System &S, const PipelineRequest &R) { S.runPipeline(R); };

template <typename System>
concept HasRunPipelineFrom =
    requires(const System &S, const PipelineRequest &R,
             const std::function<std::vector<ChangeRecord>()> &Analyze) {
      S.runPipelineFrom(R, Analyze);
    };

// processChange has one signature: the interner is always explicit.
template <typename System>
concept HasThreeArgProcessChange =
    requires(const System &S, const corpus::CodeChange &C,
             const std::vector<std::string> &Targets,
             const std::vector<const rules::Rule *> &Rules) {
      S.processChange(C, Targets, Rules);
    };

// Settings probes: each concept is true only if the field still exists.
template <typename Config>
concept HasExecField = requires(const Config &C) { C.Exec; };

template <typename Config>
concept HasMetricsField = requires(const Config &C) { C.Metrics; };

template <typename Config>
concept HasClusteringField = requires(const Config &C) { C.Clustering; };

template <typename Request>
concept HasLabelsField = requires(const Request &R) { R.Labels; };

template <typename Config>
concept HasCacheUnitsField = requires(const Config &C) { C.CacheUnits; };

// Fault-site probes: an unqualified call on a support::FaultSite finds
// the support function by argument-dependent lookup, so a removed one
// makes the concept false instead of the file ill-formed.
template <typename Site>
concept HasFaultSiteArmed = requires(Site S) { faultSiteArmed(S); };

template <typename Site>
concept HasFaultSiteName = requires(Site S) { faultSiteName(S); };

// Rule-evaluator removal probes.
template <typename Symbols>
concept HasSymbolFind =
    requires(const Symbols &S, std::string_view Text) { S.find(Text); };

template <typename Symbols>
concept HasSymbolSize = requires(const Symbols &S) { S.size(); };

template <typename Pattern>
concept HasRawEventMatch =
    requires(const Pattern &P, const analysis::UsageEvent &Event) {
      P.matchesEvent(Event);
    };

// Session removal probes: the record memo's bound and counters, and the
// session settings no caller set.
template <typename Options>
concept HasMaxCachedChanges = requires(const Options &O) { O.MaxCachedChanges; };

template <typename Options>
concept HasSessionTargetClasses = requires(const Options &O) { O.TargetClasses; };

template <typename Options>
concept HasBuildDendrograms = requires(const Options &O) { O.BuildDendrograms; };

template <typename Stats>
concept HasCacheMisses = requires(const Stats &S) { S.CacheMisses; };

template <typename Stats>
concept HasEvictions = requires(const Stats &S) { S.Evictions; };

template <typename Stats>
concept HasCachedRecords = requires(const Stats &S) { S.CachedRecords; };

// One parallel loop and one lexer loop. GCC accepts __has_include only in
// preprocessor conditions, so the header probes become constants here.
#if __has_include("support/ThreadPool.h")
constexpr bool HasThreadPoolHeader = true;
#else
constexpr bool HasThreadPoolHeader = false;
#endif
#if __has_include("support/Parallel.h")
constexpr bool HasParallelHeader = true;
#else
constexpr bool HasParallelHeader = false;
#endif

template <typename LexerT>
concept HasTokenAtATimeNext = requires(LexerT &L) { L.next(); };

template <typename LexerT>
concept HasLexAll = requires(LexerT &L) { L.lexAll(); };

// The spellings the benchmark calls, one concept per surface.
template <typename Facts>
concept BenchFactsSurface =
    std::is_default_constructible_v<Facts> &&
    std::is_move_assignable_v<Facts> &&
    requires(const analysis::AnalysisResult &Result,
             rules::ScanSymbols &Symbols, const rules::Rule &R,
             const Facts &F) {
      { Facts::from(Result) } -> std::same_as<Facts>;
      { rules::digestUnit(Result, Symbols, false) } -> std::same_as<Facts>;
      { rules::classifyChange(R, F, F) } -> std::same_as<rules::ChangeClass>;
    };

template <typename Checker>
concept BenchCheckerSurface =
    std::is_default_constructible_v<Checker> &&
    requires(const Checker &C, const std::vector<rules::UnitFacts> &Units,
             const rules::ProjectMetadata &Meta) {
      { C.rules() } -> std::same_as<const std::vector<rules::Rule> &>;
      { C.symbols()->intern("R1") } -> std::same_as<support::LabelId>;
      { C.checkProject(Units, Meta) } -> std::same_as<rules::ProjectReport>;
    };

template <typename Set>
concept BenchRuleSetSurface =
    requires(std::vector<rules::Rule> Rules,
             std::shared_ptr<rules::ScanSymbols> Symbols, const Set &S,
             const std::vector<const rules::UnitScanFacts *> &Units,
             const rules::ProjectMetadata &Meta) {
      { Set::compile(std::move(Rules), Symbols) } -> std::same_as<Set>;
      { S.symbols()->intern("R1") } -> std::same_as<support::LabelId>;
      {
        S.compiled()
      } -> std::same_as<const std::vector<rules::CompiledRule> &>;
      { S.compiled()[0].Id } -> std::convertible_to<support::LabelId>;
      {
        rules::evaluateProject(S, Units, Meta, false)
      } -> std::same_as<rules::ProjectReport>;
    };

template <typename Session>
concept BenchSessionSurface =
    requires(const apimodel::CryptoApiModel &Api,
             service::SessionOptions Opts, Session &S, const Session &CS,
             const std::vector<corpus::CodeChange> &Commit) {
      { Opts.Config } -> std::same_as<PipelineConfig &>;
      {
        Opts.ClassifyWith
      } -> std::same_as<std::vector<const rules::Rule *> &>;
      Session(Api, Opts);
      { S.ingest(Commit) } -> std::same_as<service::IngestStats>;
      { CS.size() } -> std::convertible_to<std::size_t>;
      { CS.report() } -> std::same_as<const CorpusReport &>;
      { CS.reportJson() } -> std::same_as<std::string>;
    };

template <typename Stats>
concept BenchIngestStatsSurface = requires(const Stats &S) {
  { S.Ingested } -> std::convertible_to<std::uint64_t>;
  { S.CacheHits } -> std::convertible_to<std::uint64_t>;
  { S.ClassesRepaired } -> std::convertible_to<std::uint64_t>;
  { S.PairsComputed } -> std::convertible_to<std::uint64_t>;
  { S.PairsReused } -> std::convertible_to<std::uint64_t>;
};

template <typename ScannerT>
concept BenchScannerSurface =
    requires(const apimodel::CryptoApiModel &Api, scan::ScanConfig Config,
             unsigned Width, const ScannerT &S) {
      Config.Threads = Width;
      ScannerT(Api, Config);
      { S.cachedUnits() } -> std::convertible_to<std::size_t>;
    };

template <typename System>
concept BenchUsageSurface =
    requires(const System &S, const analysis::AnalysisResult &Result,
             const std::string &Class, std::vector<usage::UsageDag> &Old,
             std::vector<usage::UsageDag> &New, support::Interner &Table) {
      {
        S.dagsForClass(Result, Class)
      } -> std::same_as<std::vector<usage::UsageDag>>;
      {
        usage::deriveUsageChanges(Old, New, Class, Table)
      } -> std::same_as<std::vector<usage::UsageChange>>;
    };

// processChange is the composition of two public stages, and
// analyzeChanges takes the corpus index of its first change.
template <typename System>
concept HasVersionStages =
    requires(const System &S, std::string_view Source, java::AstContext &Ctx,
             const std::vector<std::string> &Classes,
             const corpus::CodeChange &C, const AnalyzedVersion &V,
             const std::vector<const rules::Rule *> &Rules,
             support::Interner &Table, obs::Registry *Reg,
             const PipelineRequest &R) {
      {
        S.analyzeVersion(Source, Ctx, Classes, Rules)
      } -> std::same_as<AnalyzedVersion>;
      {
        S.analyzeVersion(Source, Ctx, Classes, Rules, VersionFacts::Merged)
      } -> std::same_as<AnalyzedVersion>;
      {
        S.assembleChange(C, V, V, Classes, Rules, Table, Reg)
      } -> std::same_as<ChangeRecord>;
      {
        S.analyzeChanges(R, std::size_t(0))
      } -> std::same_as<std::vector<ChangeRecord>>;
    };

// The per-version stage takes the rules it classifies with: facts alone
// no longer feed a change's classification.
template <typename System>
concept HasFactsOnlyVersionStage =
    requires(const System &S, std::string_view Source, java::AstContext &Ctx,
             const std::vector<std::string> &Classes) {
      S.analyzeVersion(Source, Ctx, Classes, VersionFacts::Merged);
    };

// The per-version product owns what it holds: no AST, no AnalysisResult.
template <typename Product>
concept HoldsAnalysisResult = requires(const Product &P) { P.Result; };

template <typename System>
concept BenchProcessChange =
    requires(const System &S, const corpus::CodeChange &C,
             const std::vector<std::string> &Targets,
             const std::vector<const rules::Rule *> &Rules,
             support::Interner &Table) {
      {
        S.processChange(C, Targets, Rules, Table)
      } -> std::same_as<ChangeRecord>;
    };

} // namespace

// Removal probe for the struct itself: a sentinel is using-declared into
// diffcode::core under the old name. If someone resurrects a real
// core::DiffCodeOptions, that using-declaration becomes a conflicting
// redeclaration and this file stops compiling — the removal gate fires
// at build time, before any test runs.
namespace compat_sentinel {
struct DiffCodeOptions {
  static constexpr bool IsRemovalSentinel = true;
};
} // namespace compat_sentinel

namespace diffcode::core {
using ::compat_sentinel::DiffCodeOptions;
} // namespace diffcode::core

TEST(ApiCompat, DeprecatedSpellingsAreGone) {
  static_assert(!HasOptionsAccessor<DiffCode>,
                "DiffCode::options() was removed in PR 9; use config()");
  static_assert(!HasRunPipeline<DiffCode>,
                "DiffCode::runPipeline() was removed in PR 9; use run()");
  static_assert(diffcode::core::DiffCodeOptions::IsRemovalSentinel,
                "core::DiffCodeOptions was removed in PR 9; construct from "
                "core::PipelineConfig");

  // Each setting has one home.
  static_assert(!HasExecField<PipelineConfig>,
                "the execution policy lives on PipelineRequest::Exec only");
  static_assert(!HasMetricsField<PipelineConfig>,
                "the observer lives on PipelineRequest::Metrics only");
  static_assert(std::same_as<scan::ScanConfig, PipelineConfig>,
                "the scanner runs on the pipeline's engine config; "
                "scan::ScanConfig is only the benchmark's spelling of it");
  static_assert(!HasMetricsField<scan::ScanConfig>,
                "a scan's observer lives on ScanRequest::Metrics only");
  static_assert(!HasClusteringField<PipelineConfig>,
                "the display cut is cluster::DefaultCut");
  static_assert(!HasLabelsField<PipelineRequest>,
                "every run interns into DiffCode::labels()");
  static_assert(!HasCacheUnitsField<scan::ScanConfig>,
                "the unit cache is always on, under a fault campaign too");
  // Faults follow the analyzed text, so no fast path asks whether a
  // campaign is armed.
  static_assert(!HasFaultSiteArmed<support::FaultSite>,
                "support::faultSiteArmed was removed: no path steps aside "
                "for a campaign");
  static_assert(!HasRunPipelineFrom<DiffCode>,
                "DiffCode::runPipelineFrom was folded into run()");
  static_assert(!HasThreeArgProcessChange<DiffCode>,
                "processChange takes the interner explicitly: pass "
                "*System.labels()");
  // Rules have one evaluator.
  static_assert(!HasSymbolFind<rules::ScanSymbols>,
                "ScanSymbols::find had no caller; the digest interns nothing");
  static_assert(!HasSymbolSize<rules::ScanSymbols>,
                "ScanSymbols::size had no caller");
  static_assert(!HasRawEventMatch<rules::CallPattern>,
                "patterns match digested events (CallPattern::matches); the "
                "raw-event walk is the test oracle in tests/ReferenceRules.h");
  // The session keeps no record memo and no settings nobody sets.
  static_assert(!HasMaxCachedChanges<service::SessionOptions>,
                "the session keeps no per-change record memo to bound");
  static_assert(!HasSessionTargetClasses<service::SessionOptions>,
                "the session always covers the API model's target classes");
  static_assert(!HasBuildDendrograms<service::SessionOptions>,
                "the session always builds dendrograms");
  static_assert(!HasCacheMisses<service::IngestStats>,
                "every appended change is analyzed; there are no misses");
  static_assert(!HasEvictions<service::IngestStats>,
                "the session keeps no per-change record memo to evict from");
  static_assert(!HasCachedRecords<service::SessionStats>,
                "the session keeps no per-change record memo");
  // One parallel loop, one lexer loop.
  static_assert(!HasThreadPoolHeader,
                "support::ThreadPool was replaced by support::parallelFor "
                "(support/Parallel.h)");
  static_assert(!HasTokenAtATimeNext<java::Lexer>,
                "the lexer's one entry point is lexAll()");
  // Two stages, one owned product between them.
  static_assert(HasVersionStages<DiffCode>);
  static_assert(!HasFactsOnlyVersionStage<DiffCode>,
                "analyzeVersion takes the rules to classify with; a change "
                "is classified from two versions' verdicts");
  static_assert(!HoldsAnalysisResult<AnalyzedVersion>,
                "the per-version product owns its DAGs, verdicts and facts; "
                "it keeps no AnalysisResult");
  static_assert(HoldsAnalysisResult<DiffCode::SourceAnalysis>);
  // The surviving homes still resolve, so the probes above cannot pass
  // vacuously.
  static_assert(HasExecField<PipelineRequest>);
  static_assert(HasMetricsField<PipelineRequest>);
  static_assert(HasMetricsField<scan::ScanRequest>);
  static_assert(HasParallelHeader);
  static_assert(HasFaultSiteName<support::FaultSite>);
  static_assert(HasLexAll<java::Lexer>);
  // What the benchmark calls still resolves.
  static_assert(std::same_as<rules::UnitScanFacts, rules::UnitFacts>);
  static_assert(BenchFactsSurface<rules::UnitFacts>);
  static_assert(BenchCheckerSurface<rules::CryptoChecker>);
  static_assert(BenchRuleSetSurface<rules::CompiledRuleSet>);
  static_assert(BenchProcessChange<DiffCode>);
  static_assert(BenchUsageSurface<DiffCode>);
  static_assert(BenchSessionSurface<service::AnalysisSession>);
  static_assert(BenchIngestStatsSurface<service::IngestStats>);
  static_assert(BenchScannerSurface<scan::Scanner>);
  SUCCEED();
}

TEST(ApiCompat, ReplacementSurfaceStands) {
  // The replacement spellings, exercised end to end: PipelineConfig
  // construction, config() round-trip, and run() as the one entry point.
  PipelineConfig Config;
  Config.Threads = 2;
  Config.Limits.DagDepth = 4;
  DiffCode System(api(), Config);
  EXPECT_EQ(System.config().Threads, 2u);
  EXPECT_EQ(System.config().Limits.DagDepth, 4u);

  corpus::CodeChange Fix;
  Fix.ProjectName = "proj";
  Fix.CommitIndex = 1;
  Fix.FileName = "A.java";
  Fix.OldCode = "class A { void m() { MessageDigest d = "
                "MessageDigest.getInstance(\"MD5\"); } }";
  Fix.NewCode = "class A { void m() { MessageDigest d = "
                "MessageDigest.getInstance(\"SHA-256\"); } }";
  PipelineRequest Request;
  Request.Changes = {&Fix};
  Request.TargetClasses = api().targetClasses();
  std::string Json = corpusReportToJson(System.run(Request));
  EXPECT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"changes\":1"), std::string::npos) << Json;
}
