//===- perfbench/src/Harness.cpp - Timing, resource use, result output ----===//

#include "Bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

Scale Scale::forOptions(const Options &O) {
  Scale S;
  if (O.Smoke) {
    S.MineProjects = 12;
    S.ScanProjects = 16;
    S.AppendCommits = 12;
    S.SetupReps = 1;
    S.AppendRounds = 1;
    S.MinPasses = 1;
    S.ScanMinPasses = 1;
  }
  return S;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"mine", "mine-supervised",
                                                 "scan-forks", "append"};
  return Names;
}

std::uint64_t perfbench::nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

static std::uint64_t timevalNs(const timeval &T) {
  return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(T.tv_usec) * 1000ull;
}

ProcCounters ProcCounters::now() {
  ProcCounters C;
  C.WallNs = nowNs();
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    getrusage(Who, &U);
    C.CpuNs += timevalNs(U.ru_utime) + timevalNs(U.ru_stime);
    C.MinorFaults += static_cast<std::uint64_t>(U.ru_minflt);
  }
  return C;
}

ProcCounters ProcCounters::operator-(const ProcCounters &Start) const {
  return {WallNs - Start.WallNs, CpuNs - Start.CpuNs,
          MinorFaults - Start.MinorFaults};
}

double ProcCounters::efficiency(unsigned Threads) const {
  return WallNs ? double(CpuNs) / (double(WallNs) * Threads) : 0.0;
}

double perfbench::peakRssMb() {
  long PeakKb = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    getrusage(Who, &U);
    PeakKb = std::max(PeakKb, U.ru_maxrss);
  }
  return double(PeakKb) / 1024.0;
}

/// Nearest-rank quantile.
static double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * Values.size()));
  return Values[Rank == 0 ? 0 : Rank - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double perfbench::tailQuantile(const std::vector<double> &Values,
                               std::size_t MinSamples, std::string &Label) {
  // N - ceil(Q * N) never falls as N grows, so a quantile that leaves ten
  // samples beyond it at MinSamples leaves them in every longer run too.
  const std::size_t N = MinSamples;
  for (auto [Q, Name] : {std::pair{0.99, "p99"}, std::pair{0.90, "p90"},
                         std::pair{0.75, "p75"}}) {
    std::size_t Rank = static_cast<std::size_t>(std::ceil(Q * N));
    if (Rank >= 1 && N - Rank >= 10) {
      Label = Name;
      return quantile(Values, Q);
    }
  }
  Label = "p50";
  return median(Values);
}

void Results::add(const std::string &Name, double Value,
                  const std::string &Unit, std::size_t Samples,
                  const std::string &Note) {
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not a finite number");
    Value = 0;
  }
  Entries.push_back({Name, Unit, Note, Value, Samples});
}

void Results::fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", Why.c_str());
  Correct = false;
}

void Results::print() const {
  for (const Entry &E : Entries)
    std::printf("metric %-36s %16.6g %-6s n=%-6zu %s\n", E.Name.c_str(),
                E.Value, E.Unit.c_str(), E.Samples, E.Note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (std::size_t I = 0; I < Entries.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Entries[I].Name.c_str(), Entries[I].Value,
                Entries[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}
