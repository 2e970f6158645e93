#!/usr/bin/env bash
# End-to-end benchmark entry point (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--seed S] [--workloads a,b] [--trace] [--smoke] [--calibrate N]
#       Runs ttdc_e2e once per workload (each in its own process), prints
#       every metric as `<workload>.<metric> <value> <unit>`, and writes
#       BENCH_e2e.json (BENCH_e2e.trace.json + e2e_trace.json with --trace)
#       to $TTDC_BENCH_DIR (default: the working directory). --calibrate N
#       makes N passes over seeds S..S+N-1 and prints each metric's median
#       and IQR/median against its BENCHMARK.json bound. Exits non-zero if
#       any check fails.
#
#   bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#       One workload, one process: measures for T seconds and ends stdout
#       with one JSON object {correct, attempted, failed, metrics} (the
#       BENCHMARK.json command contract).
#
# Either way the harness is first (re)built from source: the bench/e2e CMake
# project, configured into .bench_build/e2e at the repository root
# (override with TTDC_E2E_BUILD_DIR), compiles the repository's libraries
# unmodified and links the harness against them.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
BUILD="${TTDC_E2E_BUILD_DIR:-$ROOT/.bench_build/e2e}"

workload=""
workloads="lifetime,saturated,metro,campaign"
seed=1
seconds=""
trace=0
smoke=0
calibrate=0
expected="$HERE/expected.txt"

die() {
  echo "run.sh: $*" >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || die "--workload needs a value"; workload="$2"; shift 2 ;;
    --workloads) [ $# -ge 2 ] || die "--workloads needs a value"; workloads="$2"; shift 2 ;;
    --seed) [ $# -ge 2 ] || die "--seed needs a value"; seed="$2"; shift 2 ;;
    --seconds) [ $# -ge 2 ] || die "--seconds needs a value"; seconds="$2"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --calibrate) [ $# -ge 2 ] || die "--calibrate needs a value"; calibrate="$2"; shift 2 ;;
    --expected) [ $# -ge 2 ] || die "--expected needs a value"; expected="$2"; shift 2 ;;
    -h|--help) sed -n '2,21p' "$0"; exit 0 ;;
    *) die "unknown argument '$1'" ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed must be a non-negative integer"
[[ "$calibrate" =~ ^[0-9]+$ ]] || die "--calibrate must be a non-negative integer"

# --- build (all output to stderr: stdout carries only results) -------------
if [ ! -f "$ROOT/src/CMakeLists.txt" ]; then
  echo "run.sh: no ttdc sources under $ROOT/src; cannot build the benchmark" >&2
  exit 3
fi
# Temporary files (the compiler's included) stay inside the build tree.
mkdir -p "$BUILD/tmp"
export TMPDIR="$BUILD/tmp"
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$HERE" -B "$BUILD" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" -j "$(nproc)" >&2
BIN="$BUILD/ttdc_e2e"
sha="$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
common=(--expected "$expected" --scratch-dir "$BUILD/scratch" --git-sha "$sha")

# --- one workload: the BENCHMARK.json contract ------------------------------
if [ -n "$workload" ]; then
  args=(--workload "$workload" --seed "$seed" --trace "$trace" "${common[@]}")
  [ -n "$seconds" ] && args+=(--seconds "$seconds")
  [ "$smoke" = 1 ] && args+=(--smoke)
  exec "$BIN" "${args[@]}" --out-dir "${TTDC_BENCH_DIR:-$BUILD/out}"
fi

# --- every workload, one process each ---------------------------------------
passes=$(( calibrate > 0 ? calibrate : 1 ))
runs="$BUILD/runs/$(date +%Y%m%dT%H%M%S)-$$"
status=0
IFS=, read -r -a list <<< "$workloads"
for (( pass = 0; pass < passes; pass++ )); do
  dir="$runs/pass$pass"
  mkdir -p "$dir"
  for w in "${list[@]}"; do
    args=(--workload "$w" --seed $(( seed + pass )) --trace "$trace" --out-dir "$dir")
    args+=("${common[@]}")
    [ -n "$seconds" ] && args+=(--seconds "$seconds")
    [ "$smoke" = 1 ] && args+=(--smoke)
    # Human lines pass through; the trailing JSON line stays in the log.
    if ! "$BIN" "${args[@]}" > "$dir/$w.log"; then
      echo "run.sh: workload $w (seed $(( seed + pass ))) failed" >&2
      status=1
    fi
    grep -v '^{' "$dir/$w.log" || true
  done
done

python3 "$HERE/summarize.py" --benchmark "$ROOT/BENCHMARK.json" --trace "$trace" \
  --calibrate "$calibrate" --out-dir "${TTDC_BENCH_DIR:-.}" "$runs"/pass* || status=1
exit "$status"
