#!/usr/bin/env python3
"""Builds and runs the DiffCode benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload mine [--seed 42] [--seconds 10] [--trace 0]
  python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's result JSON.

--trace 1 runs the traced per-layer breakdown instead of the end-to-end
workload and writes a Chrome trace to .bench_build/traces/.

--smoke runs every workload, traced and untraced, on tiny inputs and checks
that each prints every metric BENCHMARK.json names, with its unit.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
EXE = BUILD / "perfbench"
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the benchmark; exits 1 on failure."""
    steps = []
    # A configure that failed part-way leaves a cache but no build files.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "3",
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace, smoke=False, capture=False):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")


def smoke():
    """Every workload, both modes, tiny inputs: every metric BENCHMARK.json
    names is printed with its unit, and every check passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, DEFAULT_SEED, 0.2, trace, smoke=True,
                       capture=True)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                problems.append(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from {key}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"unit mismatches "
                                f"{sorted(n for n in want if n in got and got[n] != want[n])}")
            print(f"smoke {where}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print("perfbench: smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    return run(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
