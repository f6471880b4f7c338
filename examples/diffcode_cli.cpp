//===- examples/diffcode_cli.cpp - Command-line driver ---------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// A small CLI over the public API:
//
//   diffcode_cli diff <old.java> <new.java> [--json]
//       derive and print the usage changes between two file versions
//       (all six target classes), with the filter verdict per change;
//
//   diffcode_cli check <file.java ...> [--json]
//       run CryptoChecker (R1-R13) over the files as one project;
//
//   diffcode_cli suggest <old.java> <new.java>
//       auto-suggest a rule from the change (Section 6.3).
//
//   diffcode_cli pipeline <corpus-dir> [--json] [--cluster]
//                [--metrics] [--trace-out=<file>] [--workers <n>]
//                [--unit-deadline-ms <n>] [--max-retries <n>]
//                [--fail-on-degraded <pct>]
//       load a corpus from disk (see corpus/CorpusIO.h for the layout,
//       exportable from git) and run the full mining -> abstraction ->
//       filter -> cluster pipeline, printing the Figure-6-style table.
//       --cluster builds per-class dendrograms and prints the flat
//       clusters at the default cut. --metrics runs the
//       pipeline observed: the text report gains per-stage timing and
//       counter tables, the JSON report a "metrics" block.
//       --trace-out=<file> (implies --metrics) additionally writes the
//       span trace as Chrome trace_event JSON — load it in
//       chrome://tracing or https://ui.perfetto.dev.
//       --workers <n> runs the per-change analysis stage under the
//       supervised multi-process engine (exec/Supervisor): n worker
//       subprocesses (0 = one per hardware thread) with crash/hang/OOM
//       containment; the report is byte-identical to the in-process
//       engine. --unit-deadline-ms <n> and --max-retries <n> tune the
//       watchdog and the terminal-failure bar (only meaningful with
//       --workers). --fail-on-degraded <pct> exits with status 3 when
//       more than pct percent of the mined changes did not process
//       cleanly (any non-ok status) — the CI tripwire for corpora that
//       silently rot.
//
//   Every numeric flag takes a non-negative number, written in full
//   (examples/CliArgs.h); anything else prints usage and exits 2.
//
//   diffcode_cli scan (<file.java ...> | --corpus <dir>) [--json]
//                [--rules <id,id,...>] [--refine] [--threads <n>]
//                [--metrics] [--trace-out=<file>] [--fail-on-violation]
//       run the streaming rule scanner (scan/Scanner.h). Plain files are
//       scanned as one project; --corpus scans every project of an
//       on-disk corpus (HEAD files). --rules restricts evaluation to a
//       comma-separated rule-id subset (unknown ids warn and select
//       nothing); --refine arms the demand-driven refinement pass that
//       re-checks matched rules against per-execution abstract state
//       (suppressed witness counts appear in the report; off by default,
//       and off is byte-identical to the batch CryptoChecker).
//       --threads fans projects out over that many threads (0 = one per
//       hardware thread; report bytes never depend on it). --json
//       streams the report as projects complete; --metrics adds per-rule
//       counters and latency histograms; --trace-out=<file> (implies
//       --metrics) writes the span trace as Chrome trace_event JSON.
//       --fail-on-violation exits 1 when any project violates any
//       evaluated rule (the CI tripwire).
//
//   diffcode_cli connect <socket-path> [--ingest <corpus-dir>]
//                [--query <what>] [--snapshot] [--rules <id,...>]
//                [--refine] [--scan <corpus-dir>] [--shutdown]
//       talk to a running service (examples/diffcoded.cpp, the daemon);
//       operations execute in flag order.
//       --ingest mines a corpus directory client-side and ships the
//       changes, printing the session's repair stats; --query asks
//       "health", "stats", "class:<Name>", or "metrics" (the daemon's
//       live observability summary — counters plus stage table — which
//       needs the daemon started with --metrics); --snapshot prints the full
//       report JSON (byte-identical to a cold `pipeline --json --cluster`
//       run over everything ingested so far); --scan ships a corpus
//       directory's projects to the server's warm rule scanner and
//       prints the scan report JSON (--rules/--refine, given earlier on
//       the command line, shape the request). Also spelled --connect.
//
//===----------------------------------------------------------------------===//

#include "CliArgs.h"

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "exec/Supervisor.h"
#include "corpus/CorpusIO.h"
#include "corpus/Miner.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"
#include "rules/RuleSuggestion.h"
#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"
#include "service/Server.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace diffcode;

namespace {

int printUsage() {
  std::fprintf(stderr,
               "usage: diffcode_cli diff <old.java> <new.java> [--json]\n"
               "       diffcode_cli check <file.java ...> [--json]\n"
               "       diffcode_cli suggest <old.java> <new.java>\n"
               "       diffcode_cli pipeline <corpus-dir> [--json] "
               "[--cluster]\n"
               "                    [--metrics] [--trace-out=<file>] "
               "[--workers <n>]\n"
               "                    [--unit-deadline-ms <n>] "
               "[--max-retries <n>]\n"
               "                    [--fail-on-degraded <pct>]\n"
               "       diffcode_cli scan (<file.java ...> | --corpus <dir>) "
               "[--json]\n"
               "                    [--rules <id,id,...>] [--refine] "
               "[--threads <n>]\n"
               "                    [--metrics] [--trace-out=<file>] "
               "[--fail-on-violation]\n"
               "       diffcode_cli connect <socket-path> "
               "[--ingest <corpus-dir>]\n"
               "                    [--query <what>] [--snapshot] "
               "[--rules <id,...>]\n"
               "                    [--refine] [--scan <corpus-dir>] "
               "[--shutdown]\n");
  return 2;
}

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

int runDiff(int argc, char **argv, bool Json) {
  if (argc < 4)
    return printUsage();
  corpus::CodeChange Change;
  if (!readFile(argv[2], Change.OldCode) ||
      !readFile(argv[3], Change.NewCode))
    return 1;

  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);
  bool AnySemantic = false;
  for (const std::string &Target : Api.targetClasses()) {
    for (const usage::UsageChange &UC :
         System.usageChangesFor(Change, Target)) {
      core::FilterStage Verdict = core::classifySolo(UC);
      if (Json) {
        std::printf("%s\n", core::usageChangeToJson(UC).c_str());
      } else {
        std::printf("[%s] %s\n%s", Target.c_str(),
                    core::filterStageName(Verdict), UC.str().c_str());
      }
      AnySemantic = AnySemantic || Verdict == core::FilterStage::Kept;
    }
  }
  if (!Json)
    std::printf("%s\n", AnySemantic
                            ? "=> semantic API usage change detected"
                            : "=> no semantic API usage change");
  return 0;
}

int runCheck(int argc, char **argv, bool Json) {
  std::vector<std::string> Names;
  std::vector<std::string> Codes;
  for (int I = 2; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      continue;
    std::string Code;
    if (!readFile(argv[I], Code))
      return 1;
    Names.push_back(argv[I]);
    Codes.push_back(std::move(Code));
  }
  if (Names.empty())
    return printUsage();

  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  std::vector<rules::UnitFacts> Units;
  for (const std::string &Code : Codes)
    Units.push_back(
        rules::UnitFacts::from(System.analyzeSourceChecked(Code).Result));

  rules::CryptoChecker Checker;
  rules::ProjectReport Report = Checker.checkProject(Units);
  if (Json) {
    std::printf("%s\n", core::projectReportToJson(Report).c_str());
  } else {
    for (const rules::RuleVerdict &V : Report.verdicts()) {
      if (!V.Matched)
        continue;
      const std::string &RuleId = Report.text(V.Rule);
      const rules::Rule *R = rules::findRule(RuleId);
      std::printf("%s: %s\n", RuleId.c_str(),
                  R ? R->Description.c_str() : "");
      for (const rules::Violation &Site : V.Violations)
        std::printf("  %s at %s:%s\n", Report.text(Site.Type).c_str(),
                    Names[Site.UnitIndex].c_str(),
                    Report.text(Site.Site).c_str() + 1); // drop the 'l'
    }
    if (!Report.anyMatch())
      std::printf("no violations\n");
  }
  return Report.anyMatch() ? 1 : 0;
}

int runSuggest(int argc, char **argv) {
  if (argc < 4)
    return printUsage();
  corpus::CodeChange Change;
  if (!readFile(argv[2], Change.OldCode) ||
      !readFile(argv[3], Change.NewCode))
    return 1;
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);
  bool Suggested = false;
  for (const std::string &Target : Api.targetClasses())
    for (const usage::UsageChange &UC :
         System.usageChangesFor(Change, Target)) {
      if (core::classifySolo(UC) != core::FilterStage::Kept)
        continue;
      if (auto Rule = rules::suggestRule(UC, "suggested")) {
        std::printf("%s\n", rules::describeRule(*Rule).c_str());
        Suggested = true;
      }
    }
  if (!Suggested)
    std::printf("no rule could be suggested from this change\n");
  return Suggested ? 0 : 1;
}

/// The text `--metrics` block of `pipeline` and `scan`: one line per
/// metric, in the snapshot's name order.
void printMetrics(const obs::Snapshot &Snap) {
  std::printf("\nmetrics:\n");
  for (const obs::MetricValue &V : Snap.Values) {
    switch (V.Kind) {
    case obs::MetricKind::Counter:
      std::printf("  %-32s %12llu\n", V.Name.c_str(),
                  static_cast<unsigned long long>(V.Count));
      break;
    case obs::MetricKind::Histogram:
      std::printf("  %-32s %12llu samples, sum %llu, min %llu, max %llu\n",
                  V.Name.c_str(), static_cast<unsigned long long>(V.Count),
                  static_cast<unsigned long long>(V.Sum),
                  static_cast<unsigned long long>(V.Min),
                  static_cast<unsigned long long>(V.Max));
      break;
    }
  }
}

int runPipeline(int argc, char **argv, bool Json) {
  if (argc < 3)
    return printUsage();
  bool Cluster = false;
  bool Metrics = false;
  std::string TraceOut;
  core::ExecutionPolicy Exec;
  double FailOnDegradedPct = -1.0; // negative: tripwire disabled
  for (int I = 3; I < argc; ++I) {
    if (std::strcmp(argv[I], "--cluster") == 0) {
      Cluster = true;
    } else if (std::strcmp(argv[I], "--metrics") == 0) {
      Metrics = true;
    } else if (std::strncmp(argv[I], "--trace-out=", 12) == 0) {
      TraceOut = argv[I] + 12;
      if (TraceOut.empty())
        return printUsage();
      Metrics = true;
    } else if (std::strcmp(argv[I], "--workers") == 0) {
      if (I + 1 >= argc || !parseNonNegative(argv[++I], Exec.Workers))
        return printUsage();
      Exec.Mode = core::ExecutionMode::Supervised;
    } else if (std::strcmp(argv[I], "--unit-deadline-ms") == 0) {
      if (I + 1 >= argc || !parseNonNegative(argv[++I], Exec.UnitDeadlineMs))
        return printUsage();
    } else if (std::strcmp(argv[I], "--max-retries") == 0) {
      if (I + 1 >= argc || !parseNonNegative(argv[++I], Exec.MaxRetries))
        return printUsage();
    } else if (std::strcmp(argv[I], "--fail-on-degraded") == 0) {
      if (I + 1 >= argc || !parseNonNegative(argv[++I], FailOnDegradedPct))
        return printUsage();
    } else if (std::strcmp(argv[I], "--json") != 0) {
      return printUsage();
    }
  }
  std::string Error;
  std::optional<corpus::Corpus> C = corpus::readCorpus(argv[2], &Error);
  if (!C) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  corpus::MinerOptions MinerOpts;
  MinerOpts.MinCommitsPerProject = 1; // user-supplied corpora may be tiny
  corpus::Miner M(Api, MinerOpts);
  std::vector<const corpus::CodeChange *> Mined = M.mine(*C);
  if (!Json)
    std::printf("loaded %zu projects, mined %zu crypto-touching changes\n\n",
                C->Projects.size(), Mined.size());

  core::PipelineConfig Opts;
  Opts.Threads = 0;
  core::DiffCode System(Api, Opts);
  obs::Observer Obs;
  // run() dispatches on Exec.Mode, so --workers swaps in the
  // supervised engine without a separate entry point.
  core::CorpusReport Report = System.run({.Changes = Mined,
                                          .TargetClasses = Api.targetClasses(),
                                          .BuildDendrograms = Cluster,
                                          .Metrics = Metrics ? &Obs : nullptr,
                                          .Exec = Exec});

  // The --fail-on-degraded tripwire: share of changes that did not
  // process cleanly (any non-ok status), in percent of the mined corpus.
  int ExitCode = 0;
  if (FailOnDegradedPct >= 0.0 && !Report.Changes.empty()) {
    double Share =
        100.0 * double(Report.Health.troubled()) / double(Report.Changes.size());
    if (Share > FailOnDegradedPct) {
      std::fprintf(stderr,
                   "error: %.2f%% of changes degraded or failed "
                   "(threshold %.2f%%)\n",
                   Share, FailOnDegradedPct);
      ExitCode = 3;
    }
  }

  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOut.c_str());
      return 1;
    }
    Out << Obs.Trace.traceJson() << '\n';
    if (!Json)
      std::printf("trace written to %s (%zu events)\n\n", TraceOut.c_str(),
                  Obs.Trace.eventCount());
  }

  if (Json) {
    std::printf("%s\n", core::corpusReportToJson(Report).c_str());
    return ExitCode;
  }
  std::printf("%-16s %8s %7s %6s %6s %6s\n", "target class", "usages",
              "fsame", "fadd", "frem", "fdup");
  for (const core::ClassReport &Class : Report.PerClass)
    std::printf("%-16s %8zu %7zu %6zu %6zu %6zu\n",
                Class.TargetClass.c_str(), Class.Filtered.Total,
                Class.Filtered.AfterSame, Class.Filtered.AfterAdd,
                Class.Filtered.AfterRem, Class.Filtered.AfterDup);
  for (const core::ClassReport &Class : Report.PerClass)
    for (const usage::UsageChange &UC : Class.Filtered.Kept)
      std::printf("\n[%s] %s\n%s", Class.TargetClass.c_str(),
                  UC.Origin.c_str(), UC.str().c_str());

  if (Cluster) {
    std::printf("\n");
    for (const core::ClassReport &Class : Report.PerClass) {
      if (Class.Filtered.Kept.empty())
        continue;
      std::size_t Clusters = Class.Tree.cut(cluster::DefaultCut).size();
      std::printf("%s: %zu flat clusters at cut %.2f\n",
                  Class.TargetClass.c_str(), Clusters, cluster::DefaultCut);
    }
  }

  // Corpus health: containment means broken changes never abort the run;
  // this is where they become visible instead.
  const core::CorpusHealth &Health = Report.Health;
  std::printf("\ncorpus health: %zu changes", Report.Changes.size());
  for (std::size_t I = 0; I < core::NumChangeStatuses; ++I) {
    core::ChangeStatus S = static_cast<core::ChangeStatus>(I);
    std::printf(", %zu %s", Health.count(S), core::changeStatusName(S));
  }
  std::printf("\n");
  if (Health.ClusteringFailures > 0)
    std::printf("clustering failures: %zu\n", Health.ClusteringFailures);
  for (const core::ChangeRecord &Record : Report.Changes)
    if (Record.Status != core::ChangeStatus::Ok)
      std::printf("  [%s] %s: %s\n", core::changeStatusName(Record.Status),
                  Record.Origin.c_str(), Record.StatusDetail.c_str());
  if (!Health.WorstOffenders.empty()) {
    // Wall time is only measured on observed runs (--metrics).
    std::printf("heaviest changes (interpreter steps):\n");
    std::printf("  %10s  %9s  %-15s %s\n", "steps", "wall-ms", "status",
                "origin");
    for (const core::WorstOffender &O : Health.WorstOffenders)
      std::printf("  %10llu  %9.3f  %-15s %s\n",
                  static_cast<unsigned long long>(O.Steps),
                  double(O.WallNanos) / 1e6, core::changeStatusName(O.Status),
                  O.Origin.c_str());
  }

  if (Metrics) {
    std::printf("\nstage timings:\n");
    std::printf("  %-22s %8s %12s\n", "stage", "spans", "total-ms");
    for (const obs::Tracer::StageTotal &S : Report.Metrics.Stages)
      std::printf("  %-22s %8llu %12.3f\n", S.Name.c_str(),
                  static_cast<unsigned long long>(S.Spans),
                  double(S.TotalNs) / 1e6);
    printMetrics(Report.Metrics.Metrics);
  }
  return ExitCode;
}

std::vector<std::string> splitCommaList(const char *Arg) {
  std::vector<std::string> Out;
  std::string Current;
  for (const char *P = Arg; *P; ++P) {
    if (*P == ',') {
      if (!Current.empty())
        Out.push_back(std::move(Current));
      Current.clear();
    } else {
      Current.push_back(*P);
    }
  }
  if (!Current.empty())
    Out.push_back(std::move(Current));
  return Out;
}

int runScan(int argc, char **argv) {
  bool Json = false, Refine = false, Metrics = false;
  bool FailOnViolation = false;
  unsigned Threads = 0;
  std::string CorpusDir;
  std::string TraceOut;
  std::vector<std::string> RuleFilter;
  std::vector<const char *> FileArgs;
  for (int I = 2; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--refine") == 0)
      Refine = true;
    else if (std::strcmp(argv[I], "--metrics") == 0)
      Metrics = true;
    else if (std::strncmp(argv[I], "--trace-out=", 12) == 0) {
      TraceOut = argv[I] + 12;
      if (TraceOut.empty())
        return printUsage();
      Metrics = true;
    } else if (std::strcmp(argv[I], "--fail-on-violation") == 0)
      FailOnViolation = true;
    else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      if (!parseNonNegative(argv[++I], Threads))
        return printUsage();
    } else if (std::strcmp(argv[I], "--corpus") == 0 && I + 1 < argc)
      CorpusDir = argv[++I];
    else if (std::strcmp(argv[I], "--rules") == 0 && I + 1 < argc)
      RuleFilter = splitCommaList(argv[++I]);
    else if (argv[I][0] == '-')
      return printUsage();
    else
      FileArgs.push_back(argv[I]);
  }

  std::optional<corpus::Corpus> C;
  corpus::Project AdHoc;
  std::vector<const corpus::Project *> Projects;
  if (!CorpusDir.empty()) {
    std::string Error;
    C = corpus::readCorpus(CorpusDir.c_str(), &Error);
    if (!C) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    for (const corpus::Project &P : C->Projects)
      Projects.push_back(&P);
  } else if (!FileArgs.empty()) {
    AdHoc.Name = "project";
    for (const char *Path : FileArgs) {
      corpus::ProjectFile File;
      File.Name = Path;
      if (!readFile(Path, File.Code))
        return 1;
      AdHoc.Files.push_back(std::move(File));
    }
    Projects.push_back(&AdHoc);
  } else {
    return printUsage();
  }

  core::PipelineConfig Config;
  Config.Threads = Threads;
  scan::Scanner Scanner(apimodel::CryptoApiModel::javaCryptoApi(), Config);

  for (const std::string &Id : RuleFilter) {
    bool Known = false;
    for (const rules::Rule &R : Scanner.rules().rules())
      Known = Known || R.Id == Id;
    if (!Known)
      std::fprintf(stderr, "warning: unknown rule id %s\n", Id.c_str());
  }

  obs::Observer Obs;
  scan::ScanRequest Request;
  Request.Projects = std::move(Projects);
  Request.RuleFilter = std::move(RuleFilter);
  Request.Refine = Refine;
  Request.Metrics = Metrics ? &Obs : nullptr;

  scan::ScanReport Report;
  if (Json) {
    // Stream each project record as it completes; finish() appends the
    // summary, so the bytes match scanReportToJson exactly.
    scan::ScanReportWriter Writer(std::cout);
    Report = Scanner.scan(Request, &Writer);
    Writer.finish(Report);
    std::cout << '\n';
  } else {
    Report = Scanner.scan(Request);
    std::printf("scanned %zu projects, %u with violations\n\n",
                Report.Projects.size(), Report.ProjectsWithViolation);
    std::printf("%-6s %10s %8s %10s %10s\n", "rule", "applicable", "matched",
                "violations", "suppressed");
    for (const scan::RuleTotal &T : Report.Rules)
      std::printf("%-6s %10llu %8llu %10llu %10llu\n",
                  Report.text(T.Rule).c_str(),
                  static_cast<unsigned long long>(T.Applicable),
                  static_cast<unsigned long long>(T.Matched),
                  static_cast<unsigned long long>(T.Violations),
                  static_cast<unsigned long long>(T.Suppressed));
    bool AnySite = false;
    for (const scan::ProjectScanRecord &Rec : Report.Projects)
      for (const rules::RuleVerdict &V : Rec.Report.verdicts())
        for (const rules::Violation &Site : V.Violations) {
          if (!AnySite)
            std::printf("\n");
          AnySite = true;
          std::printf("%s: %s violated by %s at %s (unit %u)\n",
                      Rec.Project.c_str(), Rec.Report.text(V.Rule).c_str(),
                      Rec.Report.text(Site.Type).c_str(),
                      Rec.Report.text(Site.Site).c_str(), Site.UnitIndex);
        }
    bool AnyTrouble = false;
    for (const scan::ProjectScanRecord &Rec : Report.Projects)
      if (Rec.Status != core::ChangeStatus::Ok) {
        if (!AnyTrouble)
          std::printf("\n");
        AnyTrouble = true;
        std::printf("  [%s] %s: %s\n", core::changeStatusName(Rec.Status),
                    Rec.Project.c_str(), Rec.Detail.c_str());
      }
    if (Metrics)
      printMetrics(Report.Metrics.Metrics);
  }
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOut.c_str());
      return 1;
    }
    Out << Obs.Trace.traceJson() << '\n';
    if (!Json)
      std::printf("\ntrace written to %s (%zu events)\n", TraceOut.c_str(),
                  Obs.Trace.eventCount());
  }
  return FailOnViolation && Report.ProjectsWithViolation > 0 ? 1 : 0;
}

int runConnect(int argc, char **argv) {
  if (argc < 3)
    return printUsage();
  std::string Error;
  int Fd = service::connectUnix(argv[2], &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  service::Client C(Fd);
  int Code = 0;
  bool ScanRefine = false;
  std::vector<std::string> ScanRules;
  for (int I = 3; I < argc && Code == 0; ++I) {
    if (std::strcmp(argv[I], "--ingest") == 0 && I + 1 < argc) {
      std::optional<corpus::Corpus> Corpus =
          corpus::readCorpus(argv[++I], &Error);
      if (!Corpus) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      // Mine client-side so the wire carries only crypto-touching
      // changes; the server sees the same change stream `pipeline` would.
      corpus::MinerOptions MinerOpts;
      MinerOpts.MinCommitsPerProject = 1;
      corpus::Miner M(apimodel::CryptoApiModel::javaCryptoApi(), MinerOpts);
      std::vector<corpus::CodeChange> Changes;
      for (const corpus::CodeChange *Change : M.mine(*Corpus))
        Changes.push_back(*Change);
      service::IngestReply Reply;
      if (!C.ingest(Changes, Reply, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      std::printf("ingested %zu changes (session total %llu): "
                  "%zu classes repaired\n",
                  Reply.Stats.Ingested,
                  static_cast<unsigned long long>(Reply.TotalChanges),
                  Reply.Stats.ClassesRepaired);
    } else if (std::strcmp(argv[I], "--query") == 0 && I + 1 < argc) {
      std::string Answer;
      // "metrics" is answered by the daemon's observer (StatsReq), not
      // the session's query handler — it needs a daemon started with
      // --metrics or --trace-out.
      bool Ok = std::strcmp(argv[I + 1], "metrics") == 0
                    ? C.stats(Answer, &Error)
                    : C.query(argv[I + 1], Answer, &Error);
      ++I;
      if (!Ok) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      std::printf("%s\n", Answer.c_str());
    } else if (std::strcmp(argv[I], "--snapshot") == 0) {
      std::string Json;
      if (!C.snapshot(Json, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      std::printf("%s\n", Json.c_str());
    } else if (std::strcmp(argv[I], "--refine") == 0) {
      ScanRefine = true;
    } else if (std::strcmp(argv[I], "--rules") == 0 && I + 1 < argc) {
      ScanRules = splitCommaList(argv[++I]);
    } else if (std::strcmp(argv[I], "--scan") == 0 && I + 1 < argc) {
      std::optional<corpus::Corpus> Corpus =
          corpus::readCorpus(argv[++I], &Error);
      if (!Corpus) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      service::ScanRequestWire Wire;
      Wire.Refine = ScanRefine;
      Wire.RuleFilter = ScanRules;
      Wire.Projects = std::move(Corpus->Projects);
      std::string Json;
      if (!C.scan(Wire, Json, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
        break;
      }
      std::printf("%s\n", Json.c_str());
    } else if (std::strcmp(argv[I], "--shutdown") == 0) {
      if (!C.shutdown(&Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        Code = 1;
      }
    } else {
      Code = printUsage();
    }
  }
  ::close(Fd);
  return Code;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return printUsage();
  bool Json = false;
  for (int I = 2; I < argc; ++I)
    Json = Json || std::strcmp(argv[I], "--json") == 0;

  if (std::strcmp(argv[1], "diff") == 0)
    return runDiff(argc, argv, Json);
  if (std::strcmp(argv[1], "check") == 0)
    return runCheck(argc, argv, Json);
  if (std::strcmp(argv[1], "suggest") == 0)
    return runSuggest(argc, argv);
  if (std::strcmp(argv[1], "pipeline") == 0)
    return runPipeline(argc, argv, Json);
  if (std::strcmp(argv[1], "scan") == 0)
    return runScan(argc, argv);
  if (std::strcmp(argv[1], "connect") == 0 ||
      std::strcmp(argv[1], "--connect") == 0)
    return runConnect(argc, argv);
  return printUsage();
}
