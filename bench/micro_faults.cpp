//===- bench/micro_faults.cpp - Fault-campaign sweep -----------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps seeded fault-injection campaigns over a generated corpus —
/// rising fault rates across all sites, then each site an in-process
/// DiffCode::run reaches (parser, interpreter, hungarian, clustering) in
/// isolation — and charts what the containment layer turned them into:
/// per-ChangeStatus counts against wall time, read from the
/// observability layer's metrics snapshots (the ROADMAP's fault-campaign
/// sweep item). The other sites are exercised elsewhere: scan-project by
/// test_scan_pipeline's campaigns, the proc-* sites by the supervised
/// workers under `ctest -L chaos`.
///
/// Self-verifying:
///
///   * every campaign yields a complete report (every mined change keeps
///     its slot, the per-status counts sum to the corpus size, and the
///     "pipeline.status.*" metrics agree with the health block);
///   * the rate-0 campaign reproduces the unobserved baseline byte for
///     byte (its report body is a prefix of the observed report);
///   * an armed campaign is byte-identical at 1 and 2 threads;
///   * the hottest campaign actually fired, single-site campaigns fire
///     only their own site, and each evaluates its own site at least
///     once (a campaign whose site is never reached shows nothing).
///
///   micro_faults [projects] [seed] [out.json]   (defaults: 120 42
///                                                BENCH_faults.json)
///
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "obs/Observer.h"
#include "support/FaultInjection.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

struct CampaignSpec {
  std::string Name;
  double Rate;
  std::uint32_t SiteMask;
};

struct CampaignResult {
  CampaignSpec Spec;
  CorpusReport Report;
  std::string Json;
  support::FaultStats Stats; // written by the run, then only read
  double WallMs = 0.0;
};

support::FaultPlan planFor(const CampaignSpec &Spec,
                           support::FaultStats *Stats) {
  support::FaultPlan Plan;
  Plan.Seed = 77;
  Plan.Rate = Spec.Rate;
  Plan.SiteMask = Spec.SiteMask;
  Plan.Stats = Stats;
  return Plan;
}

CorpusReport runCampaign(const std::vector<const corpus::CodeChange *> &Mined,
                         const support::FaultPlan &Plan, unsigned Threads,
                         obs::Observer *Obs) {
  PipelineConfig Opts;
  Opts.Threads = Threads;
  Opts.Faults = Plan;
  return DiffCode(api(), Opts).run({.Changes = Mined,
                                            .TargetClasses =
                                                api().targetClasses(),
                                            .Metrics = Obs});
}

/// "pipeline.status.<name>" counter from the campaign's metrics snapshot
/// (0 when absent — statuses that never occurred are not registered).
std::uint64_t statusMetric(const obs::Snapshot &S, ChangeStatus Status) {
  std::string Name = std::string("pipeline.status.") + changeStatusName(Status);
  for (const obs::MetricValue &V : S.Values)
    if (V.Name == Name)
      return V.Count;
  return 0;
}

/// Total nanoseconds of the "pipeline" span in the campaign's stage table.
std::uint64_t pipelineSpanNs(const obs::RunSummary &Summary) {
  for (const obs::Tracer::StageTotal &Stage : Summary.Stages)
    if (Stage.Name == "pipeline")
      return Stage.TotalNs;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  long long Projects = argc > 1 ? std::atoll(argv[1]) : 120;
  if (Projects <= 0) {
    std::fprintf(stderr, "usage: micro_faults [projects > 0] [seed] "
                         "[out.json]   (defaults: 120 42 BENCH_faults.json)\n");
    return 2;
  }
  std::uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const char *OutPath = argc > 3 ? argv[3] : "BENCH_faults.json";

  corpus::CorpusOptions Opts;
  Opts.NumProjects = static_cast<unsigned>(Projects);
  Opts.Seed = Seed;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  std::fprintf(stderr,
               "fault sweep: %lld projects (seed %llu), %zu mined changes\n",
               Projects, static_cast<unsigned long long>(Seed), Mined.size());

  // Unobserved, fault-free reference for the rate-0 byte check.
  std::string BaselineJson = corpusReportToJson(
      DiffCode(api()).run(
          {.Changes = Mined, .TargetClasses = api().targetClasses()}));

  constexpr std::uint32_t AllSites = (1u << support::NumFaultSites) - 1;
  // The sites an in-process DiffCode::run evaluates.
  const std::vector<support::FaultSite> RunSites = {
      support::FaultSite::Parser, support::FaultSite::Interpreter,
      support::FaultSite::Hungarian, support::FaultSite::Clustering};
  const double MidRate = 0.002;
  std::vector<CampaignSpec> Specs = {
      {"baseline", 0.0, AllSites},
      {"all-sites@0.0005", 0.0005, AllSites},
      {"all-sites@0.002", 0.002, AllSites},
      {"all-sites@0.008", 0.008, AllSites},
  };
  for (support::FaultSite Site : RunSites)
    Specs.push_back(
        {std::string("site-") + support::faultSiteName(Site) + "@0.002",
         MidRate, support::faultSiteBit(Site)});

  std::vector<CampaignResult> Results(Specs.size());
  std::fprintf(stderr, "\n  %-22s %5s %5s %5s %5s %5s %6s %9s\n", "campaign",
               "ok", "degr", "perr", "budg", "throw", "fired", "wall-ms");
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    CampaignResult &R = Results[I];
    R.Spec = Specs[I];
    obs::Observer Obs;
    auto Start = std::chrono::steady_clock::now();
    R.Report = runCampaign(Mined, planFor(R.Spec, &R.Stats), 1, &Obs);
    R.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    R.Json = corpusReportToJson(R.Report);
    std::fprintf(stderr, "  %-22s %5zu %5zu %5zu %5zu %5zu %6llu %9.1f\n",
                 R.Spec.Name.c_str(), R.Report.Health.count(ChangeStatus::Ok),
                 R.Report.Health.count(ChangeStatus::Degraded),
                 R.Report.Health.count(ChangeStatus::ParseError),
                 R.Report.Health.count(ChangeStatus::BudgetExceeded),
                 R.Report.Health.count(ChangeStatus::AnalysisThrow),
                 static_cast<unsigned long long>(R.Stats.totalFired()),
                 R.WallMs);
  }

  //===--------------------------------------------------------------------===//
  // Verification
  //===--------------------------------------------------------------------===//

  bool AllComplete = true, StatusSumsMatch = true, MetricsAgree = true;
  for (const CampaignResult &R : Results) {
    if (R.Report.Changes.size() != Mined.size())
      AllComplete = false;
    for (std::size_t I = 0; I < R.Report.Changes.size(); ++I)
      if (R.Report.Changes[I].Origin != Mined[I]->origin())
        AllComplete = false;
    std::size_t Sum = 0;
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      Sum += R.Report.Health.StatusCounts[I];
    if (Sum != R.Report.Changes.size())
      StatusSumsMatch = false;
    // The metrics snapshot's per-status counters must tell the same story
    // as the health block.
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      if (statusMetric(R.Report.Metrics.Metrics,
                       static_cast<ChangeStatus>(I)) !=
          R.Report.Health.StatusCounts[I])
        MetricsAgree = false;
  }

  // Rate 0 is a production run: its report body must be byte-identical to
  // the unobserved baseline (the observed report only appends "metrics").
  const std::string &Rate0 = Results[0].Json;
  bool Rate0Clean =
      !BaselineJson.empty() && Rate0.size() > BaselineJson.size() &&
      Rate0.compare(0, BaselineJson.size() - 1, BaselineJson, 0,
                    BaselineJson.size() - 1) == 0 &&
      Results[0].Stats.totalFired() == 0;

  // One armed campaign, 1 vs 2 threads, unobserved: byte-identical.
  support::FaultPlan ThreadPlan = planFor(Specs[2], nullptr);
  bool ThreadsDeterministic =
      corpusReportToJson(runCampaign(Mined, ThreadPlan, 1, nullptr)) ==
      corpusReportToJson(runCampaign(Mined, ThreadPlan, 2, nullptr));

  // The hottest campaign fired; single-site campaigns fire only their
  // own site, and each reached its own site.
  bool HottestFired = Results[3].Stats.totalFired() > 0;
  bool SitesIsolated = true, SitesReached = true;
  for (std::size_t I = 0; I < RunSites.size(); ++I) {
    const CampaignResult &R = Results[4 + I];
    for (unsigned Other = 0; Other < support::NumFaultSites; ++Other) {
      auto OtherSite = static_cast<support::FaultSite>(Other);
      if (OtherSite != RunSites[I] && R.Stats.fired(OtherSite) != 0)
        SitesIsolated = false;
    }
    if (R.Stats.evaluated(RunSites[I]) == 0)
      SitesReached = false;
  }

  //===--------------------------------------------------------------------===//
  // Report
  //===--------------------------------------------------------------------===//

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_faults");
  W.key("projects").value(static_cast<std::uint64_t>(Projects));
  W.key("seed").value(Seed);
  W.key("changes").value(static_cast<std::uint64_t>(Mined.size()));
  W.key("campaigns").beginArray();
  for (const CampaignResult &R : Results) {
    W.beginObject();
    W.key("name").value(R.Spec.Name);
    W.key("rate").value(R.Spec.Rate);
    W.key("site_mask").value(static_cast<std::uint64_t>(R.Spec.SiteMask));
    W.key("statuses").beginObject();
    for (std::size_t I = 0; I < NumChangeStatuses; ++I)
      W.key(changeStatusName(static_cast<ChangeStatus>(I)))
          .value(static_cast<std::uint64_t>(R.Report.Health.StatusCounts[I]));
    W.endObject();
    W.key("clustering_failures")
        .value(static_cast<std::uint64_t>(R.Report.Health.ClusteringFailures));
    W.key("evaluated").beginObject();
    for (unsigned Site = 0; Site < support::NumFaultSites; ++Site)
      W.key(support::faultSiteName(static_cast<support::FaultSite>(Site)))
          .value(R.Stats.evaluated(static_cast<support::FaultSite>(Site)));
    W.endObject();
    W.key("fired").beginObject();
    for (unsigned Site = 0; Site < support::NumFaultSites; ++Site)
      W.key(support::faultSiteName(static_cast<support::FaultSite>(Site)))
          .value(R.Stats.fired(static_cast<support::FaultSite>(Site)));
    W.endObject();
    W.key("wall_ms").value(R.WallMs);
    W.key("pipeline_span_ns").value(pipelineSpanNs(R.Report.Metrics));
    W.endObject();
  }
  W.endArray();
  W.key("all_complete").value(AllComplete);
  W.key("status_sums_match").value(StatusSumsMatch);
  W.key("metrics_agree_with_health").value(MetricsAgree);
  W.key("rate0_matches_baseline").value(Rate0Clean);
  W.key("threads_deterministic").value(ThreadsDeterministic);
  W.key("hottest_campaign_fired").value(HottestFired);
  W.key("single_site_isolated").value(SitesIsolated);
  W.key("single_site_reached").value(SitesReached);
  bool Pass = AllComplete && StatusSumsMatch && MetricsAgree && Rate0Clean &&
              ThreadsDeterministic && HottestFired && SitesIsolated &&
              SitesReached;
  W.key("pass").value(Pass);
  W.endObject();

  std::string Json = W.take();
  std::printf("%s\n", Json.c_str());
  std::ofstream Out(OutPath);
  if (Out)
    Out << Json << "\n";
  else
    std::fprintf(stderr, "warning: cannot write %s\n", OutPath);

  if (!AllComplete)
    std::fprintf(stderr, "FAIL: a campaign dropped or reordered changes\n");
  if (!StatusSumsMatch)
    std::fprintf(stderr, "FAIL: per-status counts do not sum to the corpus\n");
  if (!MetricsAgree)
    std::fprintf(stderr, "FAIL: pipeline.status.* metrics disagree with the "
                         "health block\n");
  if (!Rate0Clean)
    std::fprintf(stderr, "FAIL: the rate-0 campaign differs from the "
                         "baseline\n");
  if (!ThreadsDeterministic)
    std::fprintf(stderr, "FAIL: an armed campaign depends on thread count\n");
  if (!HottestFired)
    std::fprintf(stderr, "FAIL: the hottest campaign never fired\n");
  if (!SitesIsolated)
    std::fprintf(stderr, "FAIL: a single-site campaign fired another site\n");
  if (!SitesReached)
    std::fprintf(stderr, "FAIL: a single-site campaign never reached its "
                         "site\n");
  return Pass ? 0 : 1;
}
