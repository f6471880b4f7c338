//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload <mine|mine-supervised|scan-forks|append>
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--trace-out FILE]
//
// Exits 0 when every correctness check passed, 1 when one failed, 2 on
// bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

static int printUsage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-out FILE]\n",
               Why);
  return 2;
}

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (I + 1 >= argc)
      return printUsage(("missing value for " + Arg).c_str());
    std::string Value = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (!(O.Seconds > 0))
        return printUsage("--seconds must be positive");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return printUsage("--trace takes 0 or 1");
      O.Trace = Value == "1";
    } else if (Arg == "--trace-out") {
      O.TraceOut = Value;
    } else {
      return printUsage(("unknown argument " + Arg).c_str());
    }
    if (End && *End)
      return printUsage(("not a number: " + Value).c_str());
  }
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    return printUsage(("unknown workload '" + O.Workload + "'").c_str());

  Results R;
  if (O.Trace)
    runTraced(O, R);
  else
    runEndToEnd(O, R);
  R.print();
  return R.correct() ? 0 : 1;
}
