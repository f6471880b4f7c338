//===- scan/Scanner.cpp ----------------------------------------------------===//

#include "scan/Scanner.h"

#include "rules/BuiltinRules.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <tuple>

using namespace diffcode;
using namespace diffcode::scan;

bool Scanner::UnitKey::operator<(const UnitKey &O) const {
  return std::tie(H1, H2, Len, Refine) < std::tie(O.H1, O.H2, O.Len, O.Refine);
}

Scanner::Scanner(const apimodel::CryptoApiModel &Api,
                 core::PipelineConfig Config)
    : Scanner(Api, std::move(Config), rules::elicitedRules()) {}

Scanner::Scanner(const apimodel::CryptoApiModel &Api,
                 core::PipelineConfig Config, std::vector<rules::Rule> Rules)
    : Rules(rules::CompiledRuleSet::compile(
          std::move(Rules), std::make_shared<rules::ScanSymbols>())),
      System(Api, std::move(Config)) {}

std::size_t Scanner::cachedUnits() const {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Cache.size();
}

std::shared_ptr<const core::AnalyzedVersion>
Scanner::digest(std::string_view Code, bool Refine, java::AstContext &Ctx,
                std::uint64_t &Hits, std::uint64_t &Misses) const {
  const UnitKey Key{support::fnv1a64(Code),
                    support::fnv1a64(Code, 0x84222325cbf29ce4ull), Code.size(),
                    Refine};
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    if (auto It = Cache.find(Key); It != Cache.end()) {
      ++Hits;
      return It->second;
    }
  }
  ++Misses;
  auto Entry = std::make_shared<const core::AnalyzedVersion>(
      System.analyzeVersion(Code, Ctx, {}, {},
                            Refine ? core::VersionFacts::Executions
                                   : core::VersionFacts::Merged));
  std::lock_guard<std::mutex> Lock(CacheMutex);
  // A racing miss on the same content may have stored first; keep the
  // incumbent so every holder shares one entry (both are identical — the
  // digest is content-pure, its injected faults included).
  return Cache.emplace(Key, Entry).first->second;
}

ScanReport Scanner::scan(const ScanRequest &Request, ScanSink *Sink) const {
  const std::size_t N = Request.Projects.size();
  ScanReport Report;
  Report.Symbols = Rules.symbols();
  Report.Projects.resize(N);

  // Resolve the rule filter against the rule set, preserving the
  // set's order (so verdict order never depends on the filter's).
  const std::vector<rules::CompiledRule> &Compiled = Rules.compiled();
  std::vector<std::uint32_t> Selected;
  const std::vector<std::uint32_t> *Filter = nullptr;
  if (!Request.RuleFilter.empty()) {
    for (std::uint32_t I = 0; I < Compiled.size(); ++I) {
      const std::string &Id = Rules.rules()[I].Id;
      for (const std::string &Want : Request.RuleFilter)
        if (Want == Id) {
          Selected.push_back(I);
          break;
        }
    }
    Filter = &Selected;
  }

  const core::PipelineConfig &Config = System.config();
  obs::Observer *Obs = Request.Metrics;
  obs::Registry *Reg = Obs ? &Obs->Metrics : nullptr;
  obs::Span ScanSpan(Obs ? &Obs->Trace : nullptr, "scan");

  std::atomic<std::uint64_t> CacheHits{0}, CacheMisses{0};

  // Sequenced reorder buffer: workers complete in any order, the sink
  // sees strictly ascending indices.
  std::mutex EmitMutex;
  std::size_t NextEmit = 0;
  std::vector<char> Done(N, 0);
  auto Complete = [&](std::size_t I) {
    if (!Sink)
      return;
    std::lock_guard<std::mutex> Lock(EmitMutex);
    Done[I] = 1;
    while (NextEmit < N && Done[NextEmit]) {
      Sink->onProject(NextEmit, Report.Projects[NextEmit]);
      ++NextEmit;
    }
  };

  auto ScanOne = [&](std::size_t I) {
    const corpus::Project &P = *Request.Projects[I];
    ProjectScanRecord Rec;
    Rec.Project = P.Name;
    Rec.Units = static_cast<unsigned>(P.Files.size());
    std::uint64_t Hits = 0, Misses = 0;
    try {
      java::AstContext Ctx; // arena reused across the project's units
      std::vector<std::shared_ptr<const core::AnalyzedVersion>> Entries;
      Entries.reserve(P.Files.size());
      for (unsigned U = 0; U < P.Files.size(); ++U) {
        support::throwIfFault(support::FaultSite::ScanProject, U);
        Entries.push_back(
            digest(P.Files[U].Code, Request.Refine, Ctx, Hits, Misses));
      }
      std::vector<const rules::UnitFacts *> Units;
      Units.reserve(Entries.size());
      for (const std::shared_ptr<const core::AnalyzedVersion> &Entry :
           Entries) {
        Units.push_back(&Entry->Facts);
        if (Entry->Status > Rec.Status) {
          Rec.Status = Entry->Status;
          Rec.Detail = Entry->Detail;
        }
      }
      Rec.Report =
          rules::evaluateProject(Rules, Units, P.Meta, Request.Refine, Filter);
    } catch (const std::exception &E) {
      // Per-project containment: one poisoned project degrades its own
      // record (empty report), never the scan.
      Rec.Status = core::ChangeStatus::AnalysisThrow;
      Rec.Detail = E.what();
      Rec.Report = rules::ProjectReport();
      Rec.Report.Symbols = Rules.symbols();
    }
    CacheHits.fetch_add(Hits, std::memory_order_relaxed);
    CacheMisses.fetch_add(Misses, std::memory_order_relaxed);
    return Rec;
  };

  support::LoopStats Loop;
  support::parallelFor(
      Config.Threads, N,
      [&](std::size_t I) {
        // Scope key = project index: an armed plan hits the same projects
        // at any thread count.
        support::FaultScope Scope(&Config.Faults, I);
        obs::Span S(Obs ? &Obs->Trace : nullptr, "scanProject");
        std::chrono::steady_clock::time_point T0;
        if (Obs)
          T0 = std::chrono::steady_clock::now();
        Report.Projects[I] = ScanOne(I);
        if (Obs)
          Report.Projects[I].WallNanos = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - T0)
                  .count());
        Complete(I);
      },
      Obs ? &Loop : nullptr);

  // Serial fold of the per-project records into corpus totals.
  if (Filter)
    for (std::uint32_t Idx : *Filter)
      Report.Rules.push_back({Compiled[Idx].Id, 0, 0, 0, 0});
  else
    for (const rules::CompiledRule &R : Compiled)
      Report.Rules.push_back({R.Id, 0, 0, 0, 0});
  std::uint64_t TotalUnits = 0;
  for (const ProjectScanRecord &Rec : Report.Projects) {
    ++Report.StatusCounts[static_cast<unsigned>(Rec.Status)];
    TotalUnits += Rec.Units;
    if (Rec.Report.anyMatch())
      ++Report.ProjectsWithViolation;
    const std::vector<rules::RuleVerdict> &Verdicts = Rec.Report.verdicts();
    // Contained failures carry an empty verdict list; everything else
    // has exactly one verdict per scanned rule, in rule-set order.
    for (std::size_t J = 0; J < Verdicts.size(); ++J) {
      RuleTotal &T = Report.Rules[J];
      T.Applicable += Verdicts[J].Applicable ? 1 : 0;
      T.Matched += Verdicts[J].Matched ? 1 : 0;
      T.Violations += Verdicts[J].Violations.size();
      T.Suppressed += Verdicts[J].Suppressed;
    }
  }

  if (Obs) {
    obs::Registry &R = *Reg;
    R.counter("scan.projects").add(N);
    R.counter("scan.units").add(TotalUnits);
    R.counter("scan.violating").add(Report.ProjectsWithViolation);
    for (unsigned I = 0; I < core::NumChangeStatuses; ++I)
      if (Report.StatusCounts[I])
        R.counter(std::string("scan.status.") +
                  core::changeStatusName(static_cast<core::ChangeStatus>(I)))
            .add(Report.StatusCounts[I]);
    for (const RuleTotal &T : Report.Rules) {
      std::string Prefix = "scan.rule." + Report.text(T.Rule);
      R.counter(Prefix + ".applicable").add(T.Applicable);
      R.counter(Prefix + ".matched").add(T.Matched);
      R.counter(Prefix + ".violations").add(T.Violations);
      R.counter(Prefix + ".suppressed").add(T.Suppressed);
    }
    // Cache traffic and latency depend on scheduling: PerRun.
    R.counter("scan.unit_cache_hits", obs::Unit::None, obs::Stability::PerRun)
        .add(CacheHits.load(std::memory_order_relaxed));
    R.counter("scan.unit_cache_misses", obs::Unit::None,
              obs::Stability::PerRun)
        .add(CacheMisses.load(std::memory_order_relaxed));
    auto &Wall = R.histogram("scan.project_wall_ns", obs::Unit::Nanoseconds,
                             obs::Stability::PerRun);
    for (const ProjectScanRecord &Rec : Report.Projects)
      Wall.record(Rec.WallNanos);
    obs::recordLoopStats(R, Loop);
    Report.Metrics = Obs->summarize();
  }
  return Report;
}
