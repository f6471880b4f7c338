#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite, then the
# observability overhead guard (bench/micro_pipeline --verify-overhead,
# asserting an observed analyzeChanges stays within 5% of an unobserved
# one). Extra arguments pass through to ctest, e.g.
#   scripts/check.sh -L tier1
#   scripts/check.sh -L differential
#   scripts/check.sh -L metrics
#
# --asan (opt-in): build into build-asan/ with AddressSanitizer +
# UndefinedBehaviorSanitizer, aborting on the first report. Also drives
# one traced CLI pipeline run (--metrics --trace-out) so the span/metrics
# paths get a sanitized pass, and re-runs the lexer fuzz suite
# (test_lexer_fuzz) so the mutation corpus executes under the
# sanitizers; the overhead guard is skipped (sanitizer timings are
# meaningless). The regular build/ directory is untouched, so a
# sanitizer sweep never invalidates the incremental tier-1 build.
#   scripts/check.sh --asan -L tier1
#
# --bench-faults (opt-in): after the test suite, run the fault-campaign
# sweep (bench/micro_faults): per-ChangeStatus counts vs wall time across
# fault rates and sites, read from metrics snapshots. Self-verifying —
# non-zero exit on an incomplete report, a nondeterministic campaign, or
# metrics that disagree with the health block — and leaves
# BENCH_faults.json in the build directory.
#   scripts/check.sh --bench-faults -L tier1
#
# --bench-incremental (opt-in): after the test suite, run the service
# append-vs-cold-batch guard (bench/micro_incremental) at n=10k.
# Self-verifying — non-zero exit if the warmed session's snapshot is not
# byte-identical to the cold batch report or the single-commit append
# speedup falls below 5x — and leaves BENCH_incremental.json in the
# build directory.
#   scripts/check.sh --bench-incremental -L tier1
#
# --bench-scan (opt-in): after the test suite, run the streaming rule
# scanner guard (bench/micro_scan) at 5x the Fig-10 corpus.
# Self-verifying — non-zero exit if the streamed scan report is not
# byte-identical to the serial batch CryptoChecker loop (same evaluator,
# no unit cache) at 1/2/8 threads, the warm-scan speedup falls below 3x,
# the per-rule counters are missing from the metrics snapshot, or
# refinement widens a verdict — and leaves BENCH_scan.json in the build
# directory.
#   scripts/check.sh --bench-scan -L tier1
#
# --chaos (opt-in): after the regular suite, run the seeded chaos
# campaign (ctest -L chaos): workers that crash, hang, OOM-exit, start
# slowly, and corrupt result streams, asserting deterministic per-status
# counts and zero coordinator crashes; then a stitched-trace validation:
# two supervised traced CLI runs (2 and 4 workers) whose traces must be
# schema-valid, show at least two pid lanes, and agree on the per-change
# span count (span-count invariance — worker scheduling must not lose
# spans); then, last, the supervision throughput guard
# (bench/micro_supervision, asserting supervised execution stays
# byte-identical to in-process and within 10% of its CPU time at
# min(4, hardware-width) workers; leaves BENCH_supervision.json in the
# build directory). The guard runs last so that its verdict never keeps
# the trace check from running; a failing guard still fails the script.
#   scripts/check.sh --chaos -L tier1
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
CTEST_ARGS=()
ASAN=0
BENCH_FAULTS=0
BENCH_INCREMENTAL=0
BENCH_SCAN=0
CHAOS=0
for arg in "$@"; do
  if [[ "$arg" == "--asan" ]]; then
    ASAN=1
    BUILD_DIR=build-asan
    CMAKE_ARGS+=(
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
      "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all"
    )
  elif [[ "$arg" == "--bench-faults" ]]; then
    BENCH_FAULTS=1
  elif [[ "$arg" == "--bench-incremental" ]]; then
    BENCH_INCREMENTAL=1
  elif [[ "$arg" == "--bench-scan" ]]; then
    BENCH_SCAN=1
  elif [[ "$arg" == "--chaos" ]]; then
    CHAOS=1
  else
    CTEST_ARGS+=("$arg")
  fi
done

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure -j"$(nproc)" ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}

if [[ "$ASAN" == "1" ]]; then
  echo "== traced pipeline under sanitizers =="
  ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
    --metrics --trace-out=trace_asan.json > /dev/null
  echo "== supervised traced pipeline under sanitizers =="
  # The cross-process telemetry path (worker observers, Telemetry frames,
  # coordinator stitch/merge) under the sanitizers.
  ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
    --workers 2 --metrics --trace-out=trace_asan_supervised.json > /dev/null
  echo "== supervised execution differential under sanitizers =="
  ./tests/test_supervised_exec
  echo "== lexer fuzz suite under sanitizers =="
  ./tests/test_lexer_fuzz
  echo "== service round-trip under sanitizers =="
  # One full serve/connect cycle over a UNIX socket: ingest the smoke
  # corpus, query, snapshot, shut down. `wait` surfaces the daemon's
  # exit code, so a sanitizer report on either side fails the sweep.
  SOCK="${TMPDIR:-/tmp}/diffcoded_asan_$$.sock"
  rm -f "$SOCK"
  # --metrics so the live-introspection path (StatsReq) runs too: the
  # `--query metrics` round-trip below must return the daemon's summary.
  ./examples/diffcoded "$SOCK" --threads 2 --metrics &
  SERVE_PID=$!
  for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
  ./examples/diffcode_cli connect "$SOCK" \
    --ingest ../tests/data/smoke_corpus \
    --query health --query stats --query metrics --snapshot --shutdown \
    > /dev/null
  wait "$SERVE_PID"
  rm -f "$SOCK"
  echo "== rule scan under sanitizers =="
  # One refined scan through the streaming pipeline (parse, digest,
  # refinement, reorder buffer, report writer) so the scan layer gets a
  # sanitized pass too. The smoke file violates R5/R7 by design, so the
  # expected exit code under --fail-on-violation is 1.
  SCAN_RC=0
  ./examples/diffcode_cli scan --json --refine --fail-on-violation \
    ../tests/data/smoke_corpus/projA/commits/c0001/new.java > /dev/null \
    || SCAN_RC=$?
  if [[ "$SCAN_RC" != "1" ]]; then
    echo "scan --fail-on-violation exited $SCAN_RC, expected 1" >&2
    exit 1
  fi
else
  echo "== observability overhead guard (bench/micro_pipeline) =="
  ./bench/micro_pipeline --verify-overhead
fi

if [[ "$BENCH_FAULTS" == "1" ]]; then
  echo "== fault-campaign sweep (bench/micro_faults) =="
  ./bench/micro_faults 120 42 BENCH_faults.json
fi

if [[ "$BENCH_INCREMENTAL" == "1" ]]; then
  echo "== service incremental-append guard (bench/micro_incremental) =="
  ./bench/micro_incremental 10000 42 BENCH_incremental.json
fi

if [[ "$BENCH_SCAN" == "1" ]]; then
  echo "== streaming rule scanner guard (bench/micro_scan) =="
  ./bench/micro_scan 600 42 BENCH_scan.json
fi

if [[ "$CHAOS" == "1" ]]; then
  echo "== seeded chaos campaign (ctest -L chaos) =="
  ctest --output-on-failure -j"$(nproc)" -L chaos
  echo "== stitched supervised trace validation =="
  # Two supervised traced runs at different worker counts: both traces
  # must be schema-valid with worker lanes present, and the per-change
  # span count must not depend on how units were scheduled.
  for W in 2 4; do
    ./examples/diffcode_cli pipeline ../tests/data/smoke_corpus \
      --workers "$W" --metrics --trace-out="trace_chaos_w$W.json" > /dev/null
    grep -q '"traceEvents":\[' "trace_chaos_w$W.json"
    grep -q '"ph":"X"' "trace_chaos_w$W.json"
    PIDS=$(grep -o '"pid":[0-9]*' "trace_chaos_w$W.json" | sort -u | wc -l)
    if [[ "$PIDS" -lt 2 ]]; then
      echo "trace_chaos_w$W.json: expected >=2 pid lanes, got $PIDS" >&2
      exit 1
    fi
  done
  SPANS2=$(grep -o '"name":"processChange"' trace_chaos_w2.json | wc -l)
  SPANS4=$(grep -o '"name":"processChange"' trace_chaos_w4.json | wc -l)
  if [[ "$SPANS2" != "$SPANS4" || "$SPANS2" == "0" ]]; then
    echo "span-count invariance violated: $SPANS2 (2 workers) vs $SPANS4 (4 workers)" >&2
    exit 1
  fi
  echo "stitched traces OK: $SPANS2 per-change spans on both worker counts"
  echo "== supervision throughput guard (bench/micro_supervision) =="
  ./bench/micro_supervision 32 42 BENCH_supervision.json
fi
