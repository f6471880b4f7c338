//===- perfbench/src/Bench.h - Shared declarations of the benchmark -------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DiffCode benchmark: four workloads over inputs generated in memory
/// from a seed (no disk I/O, so sys-time noise never becomes the
/// measurement), end-to-end metrics from untraced runs, and a separate
/// traced run that times each layer from outside by calling its public
/// functions and recording spans in an obs::Tracer.
///
/// Every run prints human-readable lines (each metric with its unit and
/// sample count) followed by one JSON line:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_PERFBENCH_BENCH_H
#define DIFFCODE_PERFBENCH_BENCH_H

#include "apimodel/CryptoApiModel.h"
#include "core/DiffCode.h"
#include "corpus/RepoModel.h"
#include "obs/Trace.h"
#include "rules/Rule.h"
#include "scan/Scanner.h"
#include "service/AnalysisSession.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using namespace diffcode;

/// Command-line settings of one run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 42;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and short runs: checks that every metric is printed, not
  /// how fast anything is.
  bool Smoke = false;
  /// Where the traced run writes its Chrome trace.
  std::string TraceOut;
};

/// Input sizes. The defaults are the paper-scale configuration.
struct Scale {
  unsigned MineProjects = 500;   ///< 9,485 mined changes at seed 42.
  unsigned ScanProjects = 2000;  ///< Each scanned at HEAD and as a fork.
  unsigned AppendCommits = 2400; ///< Commits held back for the append loop.
  unsigned SetupReps = 5;        ///< Set-ups per run (setup_s is the median).
  unsigned AppendRounds = 3;     ///< Append set-ups, each a cold ingest.
  unsigned MinPasses = 3;        ///< Timed passes per run, at least.
  /// Timed scan-forks passes per run, at least: enough for a p75 tail.
  unsigned ScanMinPasses = 40;

  static Scale forOptions(const Options &O);
};

/// Threads (or workers) every workload runs with: the load comes from one
/// process and leaves the rest of a small shared host alone.
inline constexpr unsigned Width = 2;

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

std::uint64_t nowNs();

/// Process-wide resource counters (getrusage of self plus waited-for
/// children).
struct ProcCounters {
  std::uint64_t WallNs = 0;
  std::uint64_t CpuNs = 0;
  std::uint64_t MinorFaults = 0;

  static ProcCounters now();
  ProcCounters operator-(const ProcCounters &Start) const;
  /// CPU over wall x threads.
  double efficiency(unsigned Threads) const;
};

/// Peak resident set of this process or its largest child, in MB.
double peakRssMb();

double median(std::vector<double> Values);

/// The highest of p99/p90/p75 that leaves at least ten samples beyond it
/// in any run of at least \p MinSamples (p50 when none does), taken over
/// \p Values; \p Label receives its name. The quantile depends only on
/// \p MinSamples, so runs that fit different numbers of operations report
/// the same one.
double tailQuantile(const std::vector<double> &Values, std::size_t MinSamples,
                    std::string &Label);

/// Collected metrics of one run, printed in insertion order.
class Results {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           std::size_t Samples, const std::string &Note = "");
  /// Fails the run with a reason (printed to stderr).
  void fail(const std::string &Why);
  bool correct() const { return Correct; }

  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;

  /// Prints one line per metric, then the result JSON as the last line.
  void print() const;

private:
  struct Entry {
    std::string Name, Unit, Note;
    double Value;
    std::size_t Samples;
  };
  std::vector<Entry> Entries;
  bool Correct = true;
};

//===----------------------------------------------------------------------===//
// Inputs (Inputs.cpp)
//===----------------------------------------------------------------------===//

const apimodel::CryptoApiModel &api();

/// R1-R13, the ClassifyWith set of every mining workload.
const std::vector<const rules::Rule *> &classifyRules();

/// PipelineConfig defaults with \p Threads analysis threads.
core::PipelineConfig pipelineConfig(unsigned Threads);

/// A generated corpus and its mined changes (pointers into Corpus).
struct MinedCorpus {
  corpus::Corpus Corpus;
  std::vector<const corpus::CodeChange *> Changes;
};
/// Generates and mines; with \p T, records corpus.generate and
/// corpus.mine spans.
MinedCorpus mineCorpus(unsigned Projects, std::uint64_t Seed,
                       obs::Tracer *T = nullptr);

/// The mining workloads' request: every mined change, all target
/// classes, R1-R13, dendrograms built; under supervision with Width
/// workers when \p Supervised.
core::PipelineRequest mineRequest(const MinedCorpus &M, bool Supervised);

/// The append workload's session: one analysis thread, R1-R13.
service::SessionOptions sessionOptions();

/// Generated projects, each followed by its fork one push behind (HEAD
/// with the last commit's file reverted to its OldCode).
struct ForkCorpus {
  corpus::Corpus Heads;
  std::vector<corpus::Project> Forks;
  /// Scan order: head 0, fork 0, head 1, fork 1, ...
  std::vector<const corpus::Project *> Scan;
  std::uint64_t Units = 0;
};
/// Generates and forks; with \p T, records a corpus.generate span.
ForkCorpus forkCorpus(unsigned Projects, std::uint64_t Seed,
                      obs::Tracer *T = nullptr);

/// A cold scanner's settings: Width threads, defaults otherwise.
scan::ScanConfig scanConfig();

/// The append workload's split of a mined corpus: the head is ingested
/// cold, the tail arrives one commit at a time.
struct AppendSplit {
  std::vector<corpus::CodeChange> Head;
  std::vector<std::vector<corpus::CodeChange>> Commits;
};
AppendSplit splitForAppend(const MinedCorpus &M, unsigned Commits);

/// Share of generator-labelled fix:Rk / bug:Rk changes whose Rk
/// classification is SecurityFix / BuggyChange; \p Labelled receives the
/// number of labelled changes.
double verdictAgreement(const std::vector<core::ChangeRecord> &Records,
                        std::size_t &Labelled);

/// Appends \p Rec to \p Report, folding its status and verdicts into the
/// corpus totals the way scan::Scanner does (Report.Rules must already
/// list the rule set).
void foldProject(scan::ScanReport &Report, scan::ProjectScanRecord Rec);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string> &workloadNames();

/// Untraced run: end-to-end metrics (EndToEnd.cpp).
void runEndToEnd(const Options &O, Results &R);
/// Traced run: per-layer metrics and a Chrome trace (Traced.cpp).
void runTraced(const Options &O, Results &R);

} // namespace perfbench

#endif // DIFFCODE_PERFBENCH_BENCH_H
