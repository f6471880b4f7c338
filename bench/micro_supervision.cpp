//===- bench/micro_supervision.cpp - Supervised vs in-process throughput --===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost of crash/hang/OOM containment: the per-change analysis stage
/// run through exec/Supervisor's forked worker pool versus the in-process
/// parallel loop, at matched parallelism. Interleaved min-of-N timing (the
/// standard noise filter for a shared machine), like micro_pipeline's
/// observability guard.
///
/// Self-verifying:
///
///   * byte-identity: the supervised full-pipeline report equals the
///     in-process report byte for byte (the engine's core contract);
///   * a clean supervised run does no supervision work — zero retries,
///     bisections, restarts, deadline kills, or terminal statuses;
///   * overhead: supervised CPU time (getrusage, self + reaped children)
///     at 4 workers stays within 10% of the in-process stage at 4
///     threads (one retry with more reps before failing).
///
/// The guard is on CPU time, not wall time, deliberately. Wall time on a
/// small or shared host swings far more than the 10% bar between runs of
/// identical work (scheduling quanta, page cache, the CI harness
/// itself), while CPU time is far stabler; and CPU time is the honest
/// cost metric — it charges every containment cycle the supervisor
/// burns (fork, pipe codec, def streaming, remap) even when idle cores
/// would hide it behind wall-clock overlap. On hardware with real
/// parallelism a CPU ratio under the bar implies the wall ratio is too,
/// so the stricter gate subsumes the weaker one. Wall-clock numbers are
/// still measured and reported in the JSON, just not gated.
///
/// The gated statistic is the *lower quartile of per-rep ratios*, each
/// ratio taken from one back-to-back (in-process, supervised) pair
/// after one discarded warmup pair. The two halves of a pair run
/// milliseconds apart and so share whatever noise epoch the host is
/// in; their ratio cancels it. A ratio of global minima does not — the
/// two minima can land in different epochs and the comparison inherits
/// the full swing, which on this class of host exceeds the bar on its
/// own. Host interference only ever *inflates* CPU time, so the quiet
/// pairs are the faithful ones and a low quantile reads them while
/// staying robust to a single lucky pair (which a min-of-pairs is
/// not); the median is reported alongside for context. Global minima
/// are still what the JSON throughput numbers report.
///
/// Measurement parallelism is min(4, hardware width). Forcing four
/// CPU-bound worker *processes* onto fewer cores measures the kernel's
/// cost of time-slicing distinct address spaces (TLB and cache churn on
/// every quantum — 10-20% here, and proportional to runtime), not the
/// supervision machinery; the same four workloads as *threads* share
/// one address space and dodge that tax, so the comparison stops being
/// about containment at all. That cost vanishes when cores >= workers,
/// which is where the 4-way number is meaningful — so the bench runs
/// 4-way wherever the hardware can, and at the hardware's own width
/// (typically 1v1) below that. The byte-identity check still runs the
/// full 4-worker pool: correctness must hold at any worker count.
///
///   micro_supervision [projects] [seed] [out.json]   (defaults: 32 42
///                                                     BENCH_supervision.json)
///
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "exec/Supervisor.h"
#include "support/JsonWriter.h"
#include "support/Parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

constexpr unsigned RequestedParallelism = 4;
constexpr double OverheadBar = 1.10;

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

std::uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// Total CPU nanoseconds this process and its reaped children have
/// burned (user + system). The supervisor reaps every worker before
/// superviseChanges returns, so a delta across a supervised run charges
/// the full pool.
std::uint64_t cpuNowNs() {
  auto Sum = [](const rusage &R) {
    auto Tv = [](const timeval &T) {
      return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ull +
             static_cast<std::uint64_t>(T.tv_usec) * 1000ull;
    };
    return Tv(R.ru_utime) + Tv(R.ru_stime);
  };
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return Sum(Self) + Sum(Children);
}

struct SideSample {
  std::uint64_t WallNs = ~std::uint64_t(0);
  std::uint64_t CpuNs = ~std::uint64_t(0);
};

struct OverheadSample {
  SideSample InProc;
  SideSample Supervised;
  std::vector<double> PairCpuRatios; ///< One per back-to-back rep pair.
  double cpuRatioQuantile(double Q) const {
    std::vector<double> R = PairCpuRatios;
    std::sort(R.begin(), R.end());
    if (R.empty())
      return 0.0;
    std::size_t I = static_cast<std::size_t>(Q * static_cast<double>(R.size()));
    return R[std::min(I, R.size() - 1)];
  }
  double cpuRatioLowerQuartile() const { return cpuRatioQuantile(0.25); }
  double cpuRatioMedian() const { return cpuRatioQuantile(0.5); }
  double wallRatio() const {
    return static_cast<double>(Supervised.WallNs) /
           static_cast<double>(InProc.WallNs);
  }
};

/// One alternating sweep: \p Reps back-to-back (in-process, supervised)
/// pairs. Each pair yields one CPU ratio; per-side wall/CPU minima are
/// tracked independently for the throughput numbers.
void measure(const DiffCode &System, const PipelineRequest &InProc,
             const PipelineRequest &Supervised, unsigned Reps,
             std::size_t &Sink, OverheadSample &Sample) {
  auto Run = [&](auto &&Stage, SideSample &Side) {
    std::uint64_t CpuStart = cpuNowNs();
    auto Start = std::chrono::steady_clock::now();
    Sink += Stage();
    std::uint64_t WallNs = nanosSince(Start);
    std::uint64_t CpuNs = cpuNowNs() - CpuStart;
    if (WallNs < Side.WallNs)
      Side.WallNs = WallNs;
    if (CpuNs < Side.CpuNs)
      Side.CpuNs = CpuNs;
    return CpuNs;
  };
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    std::uint64_t InCpu =
        Run([&] { return System.analyzeChanges(InProc).size(); },
            Sample.InProc);
    std::uint64_t SupCpu =
        Run([&] { return exec::superviseChanges(System, Supervised).size(); },
            Sample.Supervised);
    Sample.PairCpuRatios.push_back(static_cast<double>(SupCpu) /
                                   static_cast<double>(InCpu));
  }
}

} // namespace

int main(int argc, char **argv) {
  long long Projects = argc > 1 ? std::atoll(argv[1]) : 32;
  if (Projects <= 0) {
    std::fprintf(stderr,
                 "usage: micro_supervision [projects > 0] [seed] [out.json]"
                 "   (defaults: 32 42 BENCH_supervision.json)\n");
    return 2;
  }
  std::uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const char *OutPath = argc > 3 ? argv[3] : "BENCH_supervision.json";

  corpus::CorpusOptions Opts;
  Opts.NumProjects = static_cast<unsigned>(Projects);
  Opts.Seed = Seed;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  unsigned Parallelism =
      std::min(RequestedParallelism, support::resolveThreads(0));
  std::fprintf(stderr,
               "supervision bench: %lld projects (seed %llu), %zu mined "
               "changes, %u-way (%u requested)\n",
               Projects, static_cast<unsigned long long>(Seed), Mined.size(),
               Parallelism, RequestedParallelism);

  PipelineConfig SysOpts;
  SysOpts.Threads = Parallelism;
  DiffCode System(api(), SysOpts);

  PipelineRequest InProc;
  InProc.Changes = Mined;
  InProc.TargetClasses = api().targetClasses();

  PipelineRequest Supervised = InProc;
  Supervised.Exec.Mode = ExecutionMode::Supervised;
  Supervised.Exec.Workers = Parallelism;

  // The correctness checks always exercise the full requested pool —
  // worker count must never change the report.
  PipelineRequest FullPool = Supervised;
  FullPool.Exec.Workers = RequestedParallelism;

  //===--------------------------------------------------------------------===//
  // Byte-identity + clean-run bookkeeping
  //===--------------------------------------------------------------------===//

  std::string InProcJson = corpusReportToJson(System.run(InProc));
  exec::SupervisionStats Stats;
  std::vector<ChangeRecord> SupRecords =
      exec::superviseChanges(System, FullPool, &Stats);
  std::string SupervisedJson =
      corpusReportToJson(System.run(FullPool));
  bool ByteIdentical = !InProcJson.empty() && InProcJson == SupervisedJson;

  std::uint64_t TerminalTotal = 0;
  for (std::uint64_t N : Stats.TerminalStatus)
    TerminalTotal += N;
  bool CleanRun = SupRecords.size() == Mined.size() && Stats.Retries == 0 &&
                  Stats.Bisections == 0 && Stats.WorkerRestarts == 0 &&
                  Stats.DeadlineKills == 0 && Stats.InlineFallbacks == 0 &&
                  TerminalTotal == 0;

  //===--------------------------------------------------------------------===//
  // Throughput: interleaved min-of-N, one retry
  //===--------------------------------------------------------------------===//

  std::size_t Sink = 0; // keeps the stage runs observable
  {
    // One discarded warmup pair: the first supervised run after the
    // correctness section faults in the fork/pipe paths cold.
    OverheadSample Warmup;
    measure(System, InProc, Supervised, 1, Sink, Warmup);
  }
  unsigned Reps = 7;
  OverheadSample Sample;
  measure(System, InProc, Supervised, Reps, Sink, Sample);
  bool OverheadOk = Sample.cpuRatioLowerQuartile() < OverheadBar;
  if (!OverheadOk) {
    unsigned More = 15;
    std::fprintf(stderr,
                 "  p25 cpu ratio %.4f over bar, extending by %u reps\n",
                 Sample.cpuRatioLowerQuartile(), More);
    // Every pair samples the same quantity: extend the collection
    // rather than discarding the first pass.
    measure(System, InProc, Supervised, More, Sink, Sample);
    Reps += More;
    OverheadOk = Sample.cpuRatioLowerQuartile() < OverheadBar;
  }

  double ChangesPerSecInProc =
      Mined.empty() ? 0.0 : Mined.size() / (Sample.InProc.WallNs / 1e9);
  double ChangesPerSecSupervised =
      Mined.empty() ? 0.0 : Mined.size() / (Sample.Supervised.WallNs / 1e9);
  std::fprintf(stderr,
               "  in-process cpu %8.2f ms wall %8.2f ms (%7.0f changes/s)\n"
               "  supervised cpu %8.2f ms wall %8.2f ms (%7.0f changes/s)\n"
               "  pair cpu ratio p25 %.4f (gated) median %.4f  min-wall "
               "ratio %.4f (reported)\n",
               Sample.InProc.CpuNs / 1e6, Sample.InProc.WallNs / 1e6,
               ChangesPerSecInProc, Sample.Supervised.CpuNs / 1e6,
               Sample.Supervised.WallNs / 1e6, ChangesPerSecSupervised,
               Sample.cpuRatioLowerQuartile(), Sample.cpuRatioMedian(),
               Sample.wallRatio());

  //===--------------------------------------------------------------------===//
  // Report
  //===--------------------------------------------------------------------===//

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_supervision");
  W.key("projects").value(static_cast<std::uint64_t>(Projects));
  W.key("seed").value(Seed);
  W.key("changes").value(static_cast<std::uint64_t>(Mined.size()));
  W.key("parallelism").value(static_cast<std::uint64_t>(Parallelism));
  W.key("parallelism_requested")
      .value(static_cast<std::uint64_t>(RequestedParallelism));
  W.key("reps").value(static_cast<std::uint64_t>(Reps));
  W.key("inproc_cpu_ns_min").value(Sample.InProc.CpuNs);
  W.key("supervised_cpu_ns_min").value(Sample.Supervised.CpuNs);
  W.key("inproc_wall_ns_min").value(Sample.InProc.WallNs);
  W.key("supervised_wall_ns_min").value(Sample.Supervised.WallNs);
  W.key("inproc_changes_per_sec").value(ChangesPerSecInProc);
  W.key("supervised_changes_per_sec").value(ChangesPerSecSupervised);
  W.key("overhead_cpu_ratio_p25").value(Sample.cpuRatioLowerQuartile());
  W.key("overhead_cpu_ratio_median").value(Sample.cpuRatioMedian());
  W.key("overhead_wall_ratio").value(Sample.wallRatio());
  W.key("overhead_bar").value(OverheadBar);
  W.key("supervision").beginObject();
  W.key("units_dispatched").value(Stats.UnitsDispatched);
  W.key("frames_received").value(Stats.FramesReceived);
  W.key("bytes_received").value(Stats.BytesReceived);
  W.key("worker_restarts").value(Stats.WorkerRestarts);
  W.key("retries").value(Stats.Retries);
  W.key("bisections").value(Stats.Bisections);
  W.key("deadline_kills").value(Stats.DeadlineKills);
  W.key("inline_fallbacks").value(Stats.InlineFallbacks);
  W.endObject();
  W.key("byte_identical").value(ByteIdentical);
  W.key("clean_run_no_supervision_work").value(CleanRun);
  W.key("overhead_ok").value(OverheadOk);
  bool Pass = ByteIdentical && CleanRun && OverheadOk;
  W.key("pass").value(Pass);
  W.endObject();

  std::string Json = W.take();
  std::printf("%s\n", Json.c_str());
  std::ofstream Out(OutPath);
  if (Out)
    Out << Json << "\n";
  else
    std::fprintf(stderr, "warning: cannot write %s\n", OutPath);

  if (!ByteIdentical)
    std::fprintf(stderr, "FAIL: supervised report differs from in-process\n");
  if (!CleanRun)
    std::fprintf(stderr, "FAIL: a clean run did supervision work\n");
  if (!OverheadOk)
    std::fprintf(stderr,
                 "FAIL: supervised p25 cpu overhead ratio %.4f >= %.2f\n",
                 Sample.cpuRatioLowerQuartile(), OverheadBar);
  std::fprintf(stderr, "  %s\n", Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}
