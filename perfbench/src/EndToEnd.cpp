//===- perfbench/src/EndToEnd.cpp - Untraced end-to-end workloads ---------===//
//
// Every workload sets up several times (setup_s is the median), runs one
// untimed first pass, then timed passes until the run's seconds are spent,
// checking outputs as it goes. Instrumentation stays off (Metrics ==
// nullptr) throughout.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ReportWriter.h"
#include "rules/CryptoChecker.h"
#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"
#include "service/AnalysisSession.h"

#include <sstream>

using namespace perfbench;

namespace {

/// Timed operations of one run and the resources each used.
struct Timed {
  std::vector<double> OpMs;
  /// Per operation: items per wall second, and CPU microseconds per item.
  std::vector<double> Rate, CpuUs;
  std::uint64_t Items = 0;
  std::uint64_t WallNs = 0;
  std::vector<double> SetupS;

  void addOp(const ProcCounters &Used, std::uint64_t OpItems) {
    OpMs.push_back(double(Used.WallNs) / 1e6);
    Rate.push_back(double(OpItems) / (double(Used.WallNs) / 1e9));
    CpuUs.push_back(double(Used.CpuNs) / 1e3 / double(OpItems));
    Items += OpItems;
    WallNs += Used.WallNs;
  }
  bool more(const Options &O, unsigned MinOps) const {
    return OpMs.size() < MinOps || double(WallNs) / 1e9 < O.Seconds;
  }
};

/// The end-to-end metrics every workload reports. \p Item and \p Op name
/// what a workload counts and times (e.g. "change" and "pass"); every run
/// times at least \p MinOps operations, which fixes the tail quantile.
/// Rates are medians over operations: other tenants of a shared host slow a
/// varying share of them, and a median moves less with that than a total
/// does.
void report(Results &R, const Timed &T, double Agreement,
            std::size_t Labelled, const std::string &Item,
            const std::string &Op, std::size_t MinOps) {
  std::string Tail;
  const double TailMs = tailQuantile(T.OpMs, MinOps, Tail);
  const std::string Ops = std::to_string(T.OpMs.size()) + " " + Op + "s, " +
                          std::to_string(T.Items) + " " + Item + "s";
  R.add("setup_s", median(T.SetupS), "s", T.SetupS.size(), "median set-up");
  R.add("items_per_s", median(T.Rate), "1/s", T.OpMs.size(),
        Item + "s per wall second, median over " + Ops);
  R.add("cpu_us_per_item", median(T.CpuUs), "us", T.OpMs.size(),
        "self+children CPU per " + Item + ", median over " + Op + "s");
  R.add("op_p50_ms", median(T.OpMs), "ms", T.OpMs.size(),
        "median " + Op + " wall");
  R.add("op_tail_ms", TailMs, "ms", T.OpMs.size(),
        Tail + " " + Op + " wall (highest with >= 10 samples beyond in " +
            std::to_string(MinOps) + " " + Op + "s)");
  R.add("peak_rss_mb", peakRssMb(), "MB", 1, "self or largest child");
  R.add("ok_share",
        R.Attempted ? 1.0 - double(R.Failed) / double(R.Attempted) : 0.0,
        "share", R.Attempted, "1 - failed_share");
  R.add("gt_verdict_agreement", Agreement, "share", Labelled,
        "generator-labelled fix/bug verdicts confirmed");
}

std::uint64_t fnv1a(const std::string &S, std::uint64_t H) {
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

/// The corpus report JSON plus a digest of every change record's JSON:
/// the report alone omits per-change classifications.
std::string fingerprint(const core::CorpusReport &Report,
                        const std::string &Json) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (const core::ChangeRecord &Record : Report.Changes)
    H = fnv1a(core::changeRecordToJson(Record), H);
  return Json + "#" + std::to_string(H);
}

std::size_t countTroubled(const std::vector<core::ChangeRecord> &Records,
                          std::size_t From = 0) {
  std::size_t N = 0;
  for (std::size_t I = From; I < Records.size(); ++I)
    N += Records[I].Status != core::ChangeStatus::Ok;
  return N;
}

//===----------------------------------------------------------------------===//
// mine, mine-supervised
//===----------------------------------------------------------------------===//

void mine(const Options &O, const Scale &S, bool Supervised, Results &R) {
  Timed T;
  MinedCorpus M;
  for (unsigned Rep = 0; Rep < S.SetupReps; ++Rep) {
    std::uint64_t T0 = nowNs();
    M = mineCorpus(S.MineProjects, O.Seed);
    T.SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  std::fprintf(stderr, "perfbench: %s: %zu projects, %zu mined changes\n",
               O.Workload.c_str(), M.Corpus.Projects.size(), M.Changes.size());

  core::DiffCode System(api(), pipelineConfig(Width));
  core::PipelineRequest Request = mineRequest(M, Supervised);

  // The first pass in a process is untimed (see the traced run's
  // proc.first_pass_* metrics for why).
  core::CorpusReport First = System.run(Request);
  const std::string Expected =
      fingerprint(First, core::corpusReportToJson(First));
  std::size_t Labelled = 0;
  const double Agreement = verdictAgreement(First.Changes, Labelled);

  while (T.more(O, S.MinPasses)) {
    ProcCounters Start = ProcCounters::now();
    core::CorpusReport Report = System.run(Request);
    std::string Json = core::corpusReportToJson(Report);
    T.addOp(ProcCounters::now() - Start, Report.Changes.size());
    R.Attempted += Report.Changes.size();
    R.Failed += countTroubled(Report.Changes);
    if (fingerprint(Report, Json) != Expected)
      R.fail("report bytes differ from the first pass");
    std::size_t L = 0;
    if (verdictAgreement(Report.Changes, L) != Agreement)
      R.fail("verdicts differ from the first pass");
  }

  if (Supervised) {
    // Supervised bytes must equal the in-process engine's.
    core::PipelineRequest InProcess = Request;
    InProcess.Exec = {};
    core::CorpusReport Report = System.run(InProcess);
    if (fingerprint(Report, core::corpusReportToJson(Report)) != Expected)
      R.fail("supervised report differs from the in-process report");
  }
  report(R, T, Agreement, Labelled, "change", "pass", S.MinPasses);
}

//===----------------------------------------------------------------------===//
// scan-forks
//===----------------------------------------------------------------------===//

/// The serial CryptoChecker composition (bench/micro_scan's reference
/// shape): per project, analyze every file, build UnitFacts, check.
std::string serialScanJson(const std::vector<const corpus::Project *> &Projects) {
  core::DiffCode System(api());
  rules::CryptoChecker Checker;
  scan::ScanReport Report;
  Report.Symbols = Checker.symbols();
  for (const rules::Rule &Rule : Checker.rules())
    Report.Rules.push_back({Checker.symbols()->intern(Rule.Id), 0, 0, 0, 0});
  for (const corpus::Project *P : Projects) {
    scan::ProjectScanRecord Rec;
    Rec.Project = P->Name;
    Rec.Units = static_cast<unsigned>(P->Files.size());
    // UnitFacts borrow the results' object tables.
    std::vector<analysis::AnalysisResult> Results;
    for (const corpus::ProjectFile &File : P->Files) {
      core::DiffCode::SourceAnalysis SA = System.analyzeSourceChecked(File.Code);
      if (SA.Status > Rec.Status) {
        Rec.Status = SA.Status;
        Rec.Detail = std::move(SA.Detail);
      }
      Results.push_back(std::move(SA.Result));
    }
    std::vector<rules::UnitFacts> Units;
    for (const analysis::AnalysisResult &Result : Results)
      Units.push_back(rules::UnitFacts::from(Result));
    Rec.Report = Checker.checkProject(Units, P->Meta);
    foldProject(Report, std::move(Rec));
  }
  return scan::scanReportToJson(Report);
}

/// Whether \p Rec matched rule \p RuleId.
bool matched(const scan::ProjectScanRecord &Rec, const std::string &RuleId) {
  for (const rules::RuleVerdict &V : Rec.Report.verdicts())
    if (Rec.Report.text(V.Rule) == RuleId)
      return V.Matched;
  return false;
}

/// Generator ground truth for the scanner: when a project's last commit
/// is fix:Rk, its fork (one push behind) still has the misuse and must
/// match Rk; when it is bug:Rk, HEAD has it.
double scanAgreement(const ForkCorpus &F, const scan::ScanReport &Report,
                     std::size_t &Labelled) {
  std::size_t Agree = 0;
  Labelled = 0;
  for (std::size_t I = 0; I < F.Heads.Projects.size(); ++I) {
    const corpus::Project &P = F.Heads.Projects[I];
    if (P.History.empty())
      continue;
    const corpus::CodeChange &Last = P.History.back();
    if (!Last.isGroundTruthFix() && !Last.isGroundTruthBug())
      continue;
    ++Labelled;
    const scan::ProjectScanRecord &Rec =
        Report.Projects[2 * I + (Last.isGroundTruthFix() ? 1 : 0)];
    Agree += matched(Rec, Last.Kind.substr(4));
  }
  return Labelled ? double(Agree) / double(Labelled) : 0.0;
}

void scanForks(const Options &O, const Scale &S, Results &R) {
  Timed T;
  ForkCorpus F;
  for (unsigned Rep = 0; Rep < S.SetupReps; ++Rep) {
    std::uint64_t T0 = nowNs();
    F = forkCorpus(S.ScanProjects, O.Seed);
    T.SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  std::fprintf(stderr, "perfbench: scan-forks: %zu projects, %llu units\n",
               F.Scan.size(), static_cast<unsigned long long>(F.Units));

  scan::ScanRequest Request;
  Request.Projects = F.Scan;
  // A fresh scanner per pass: the cold `diffcode_cli scan --corpus` path.
  auto Pass = [&](std::string &Streamed) {
    scan::Scanner Scanner(api(), scanConfig());
    std::ostringstream Out;
    scan::ScanReportWriter Writer(Out);
    scan::ScanReport Report = Scanner.scan(Request, &Writer);
    Writer.finish(Report);
    Streamed = Out.str();
    return Report;
  };

  std::string Expected;
  scan::ScanReport First = Pass(Expected);
  if (scan::scanReportToJson(First) != Expected)
    R.fail("streamed scan output differs from the batch output");
  if (serialScanJson(F.Scan) != Expected)
    R.fail("scan output differs from the serial CryptoChecker composition");
  std::size_t Labelled = 0;
  const double Agreement = scanAgreement(F, First, Labelled);

  while (T.more(O, S.ScanMinPasses)) {
    std::string Streamed;
    ProcCounters Start = ProcCounters::now();
    scan::ScanReport Report = Pass(Streamed);
    T.addOp(ProcCounters::now() - Start, F.Units);
    R.Attempted += Report.Projects.size();
    R.Failed += Report.Projects.size() -
                Report.StatusCounts[unsigned(core::ChangeStatus::Ok)];
    if (Streamed != Expected || scan::scanReportToJson(Report) != Expected)
      R.fail("scan output differs from the first pass");
  }
  report(R, T, Agreement, Labelled, "unit", "pass", S.ScanMinPasses);
}

//===----------------------------------------------------------------------===//
// append
//===----------------------------------------------------------------------===//

void append(const Options &O, const Scale &S, Results &R) {
  Timed T;
  std::string Expected;
  double Agreement = 0;
  std::size_t Labelled = 0;
  std::size_t PerRound = 0;
  // Each round sets up a fresh session (an ingest mutates it, and
  // replaying a commit would time the all-hits path). The first round's
  // cold ingest is the process's untimed first pass.
  for (unsigned Round = 0; Round < S.AppendRounds || T.more(O, 1); ++Round) {
    std::uint64_t T0 = nowNs();
    MinedCorpus M = mineCorpus(S.MineProjects, O.Seed);
    AppendSplit Split = splitForAppend(M, S.AppendCommits);
    service::AnalysisSession Session(api(), sessionOptions());
    Session.ingest(Split.Head);
    T.SetupS.push_back(double(nowNs() - T0) / 1e9);
    PerRound = Split.Commits.size();
    if (Round == 0)
      std::fprintf(stderr,
                   "perfbench: append: %zu changes ingested cold, then %zu "
                   "commits one at a time\n",
                   Split.Head.size(), Split.Commits.size());

    // Closed loop, one client: the next commit goes in once the previous
    // ingest returned.
    for (const std::vector<corpus::CodeChange> &Commit : Split.Commits) {
      std::size_t Before = Session.size();
      ProcCounters Start = ProcCounters::now();
      service::IngestStats Stats = Session.ingest(Commit);
      T.addOp(ProcCounters::now() - Start, Commit.size());
      R.Attempted += 1;
      R.Failed += countTroubled(Session.report().Changes, Before) > 0;
      if (Stats.Ingested != Commit.size() ||
          Session.size() != Before + Commit.size())
        R.fail("ingest bookkeeping is inconsistent");
    }

    // Every round ends on the same bytes, so one cold run checks them all.
    if (Round == 0) {
      core::DiffCode Cold(api(), pipelineConfig(Width));
      Expected = core::corpusReportToJson(Cold.run(mineRequest(M, false)));
      Agreement = verdictAgreement(Session.report().Changes, Labelled);
    }
    if (Session.reportJson() != Expected)
      R.fail("appended session report differs from a cold run");
    if (verdictAgreement(Session.report().Changes, Labelled) != Agreement)
      R.fail("verdicts differ between rounds");
  }
  report(R, T, Agreement, Labelled, "change", "ingest",
         S.AppendRounds * PerRound);
}

} // namespace

void perfbench::runEndToEnd(const Options &O, Results &R) {
  Scale S = Scale::forOptions(O);
  if (O.Workload == "mine")
    mine(O, S, /*Supervised=*/false, R);
  else if (O.Workload == "mine-supervised")
    mine(O, S, /*Supervised=*/true, R);
  else if (O.Workload == "scan-forks")
    scanForks(O, S, R);
  else
    append(O, S, R);
}
