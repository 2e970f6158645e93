#!/usr/bin/env bash
# Builds the bench harness and runs every bench binary, collecting the
# machine-readable BENCH_<name>.json reports (obs::BenchReport) at the repo
# root. Exits non-zero if the build fails, any bench fails its paper-claim
# check, or any report file is missing afterwards.
#
# Usage: scripts/run_benches.sh [--perf-check] [--jobs N] [build-dir]
#   TTDC_BENCH_DIR  overrides where reports are written (default: repo root)
#
# --jobs N: run up to N bench binaries concurrently. Each bench writes its
# report into a private temp directory (so concurrent benches never race on
# the same BENCH_*.json) and the reports are moved into TTDC_BENCH_DIR once
# the bench exits; logs are replayed in the binaries' name order, so the
# combined output is stable regardless of completion order.
#
# --perf-check: runs only the perf-gated benches (bench_sim_hotpath,
# bench_campaign, bench_fault_resilience, bench_megascale,
# bench_fastforward) and compares
# them against the committed baselines
# (bench/baselines/), failing on a >25% regression of any *_speedup metric.
# A failing bench does not stop the check: every bench runs and prints a
# verdict line, and the script exits non-zero at the end if any failed.
# The speedups are gated because the paired measurement cancels machine
# load and clock drift; absolute slots/sec are printed for context but not
# gated (they halve under a concurrent build). Regenerate a baseline (copy
# BENCH_<name>.json over it) when the pipeline legitimately changes shape.
set -euo pipefail

perf_check=0
jobs=1
while [ $# -gt 0 ]; do
  case "$1" in
    --perf-check) perf_check=1; shift ;;
    --jobs) jobs="$2"; shift 2 ;;
    *) break ;;
  esac
done

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_dir="${TTDC_BENCH_DIR:-$repo_root}"
export TTDC_BENCH_DIR="$bench_dir"

scratch=""

# Archive whatever reports exist under bench/history/<git-sha>/ so
# scripts/bench_trend.py can chart metric drift across commits. Runs from an
# EXIT trap: a bench that crashes the script (or a ctrl-C) still archives the
# reports of everything that DID finish — a partial run's numbers are worth
# keeping, losing them silently is not. A dirty tree gets a "-dirty" suffix
# (the numbers don't belong to the clean sha).
archive_reports() {
  trap_status=$?
  [ -n "$scratch" ] && rm -rf "$scratch"
  if ! ls "$bench_dir"/BENCH_*.json >/dev/null 2>&1; then
    return 0
  fi
  if sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null)"; then
    if ! git -C "$repo_root" diff --quiet 2>/dev/null; then
      sha="${sha}-dirty"
    fi
    history_dir="$repo_root/bench/history/$sha"
    mkdir -p "$history_dir"
    cp "$bench_dir"/BENCH_*.json "$history_dir/" 2>/dev/null || true
    if [ "$trap_status" -eq 0 ]; then
      echo "archived reports to bench/history/$sha/"
    else
      echo "archived PARTIAL reports to bench/history/$sha/ (run exited $trap_status)"
    fi
  fi
  return 0
}
trap archive_reports EXIT

cmake -B "$build_dir" -S "$repo_root"

# compare_baseline <report.json> <baseline.json>
# Gates every *_speedup metric at 25% below baseline; *_slots_per_sec
# metrics named in the baseline are printed for context only (as "missing"
# when the current report lacks one).
compare_baseline() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

TOLERANCE = 0.25  # fail when a metric drops more than 25% below baseline

with open(sys.argv[1]) as f:
    current = json.load(f)["metrics"]
with open(sys.argv[2]) as f:
    baseline = json.load(f)["metrics"]

failures = []
for key, base in sorted(baseline.items()):
    if key.endswith("_slots_per_sec"):
        cur = current.get(key)
        shown = "missing" if cur is None else f"{cur:.4g}"
        print(f"  {key}: baseline {base:.4g}, current {shown} (informational)")
        continue
    if not key.endswith("_speedup"):
        continue
    cur = current.get(key)
    if cur is None or base is None:
        failures.append(f"{key}: missing (baseline {base}, current {cur})")
        continue
    floor = base * (1.0 - TOLERANCE)
    verdict = "ok" if cur >= floor else "REGRESSION"
    print(f"  {key}: baseline {base:.4g}, current {cur:.4g}, floor {floor:.4g}: {verdict}")
    if cur < floor:
        failures.append(f"{key}: {cur:.4g} < {floor:.4g} (baseline {base:.4g})")

if failures:
    print("perf check FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("perf check passed")
EOF
}

if [ "$perf_check" -eq 1 ]; then
  cmake --build "$build_dir" -j "$(nproc)" --target bench_sim_hotpath bench_campaign \
    bench_fault_resilience bench_megascale bench_fastforward
  # Every gated bench runs and prints a verdict: a failure (the bench's own
  # gate, a missing report or baseline, a regression against the baseline)
  # is recorded and the check goes on to the next bench.
  status=0
  failed=()
  for spec in "bench_sim_hotpath:" "bench_campaign:--perf-check" "bench_fault_resilience:" \
              "bench_megascale:" "bench_fastforward:"; do
    name="${spec%%:*}"
    flag="${spec#*:}"
    echo "=== $name (perf check) ==="
    report="$bench_dir/BENCH_${name#bench_}.json"
    baseline="$repo_root/bench/baselines/BENCH_${name#bench_}.baseline.json"
    rm -f "$report"  # a report from an earlier run must not stand in for this one
    verdict=""
    # shellcheck disable=SC2086
    "$build_dir/bench/$name" $flag || verdict="bench gate failed"
    if [ ! -s "$report" ]; then
      verdict="${verdict:+$verdict; }missing report $report"
    elif [ ! -s "$baseline" ]; then
      verdict="${verdict:+$verdict; }missing baseline $baseline"
    elif ! compare_baseline "$report" "$baseline"; then
      verdict="${verdict:+$verdict; }regression against the baseline"
    fi
    echo "=== $name verdict: ${verdict:-ok} ==="
    if [ -n "$verdict" ]; then
      status=1
      failed+=("$name: $verdict")
    fi
  done
  if [ "$status" -ne 0 ]; then
    echo "perf check FAILED:" >&2
    printf '  %s\n' "${failed[@]}" >&2
  fi
  exit "$status"
fi

cmake --build "$build_dir" -j "$(nproc)"

bins=()
for bin in "$build_dir"/bench/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  bins+=("$bin")
done
if [ "${#bins[@]}" -eq 0 ]; then
  echo "no bench binaries found under $build_dir/bench" >&2
  exit 1
fi

status=0
if [ "$jobs" -le 1 ]; then
  for bin in "${bins[@]}"; do
    name="$(basename "$bin")"
    echo
    echo "=== $name ==="
    if ! "$bin"; then
      echo "FAILED: $name" >&2
      status=1
    fi
    report="$bench_dir/BENCH_${name#bench_}.json"
    if [ ! -s "$report" ]; then
      echo "MISSING REPORT: $report" >&2
      status=1
    fi
  done
else
  scratch="$(mktemp -d)"
  for bin in "${bins[@]}"; do
    name="$(basename "$bin")"
    mkdir -p "$scratch/$name"
    (
      # Private report dir per bench: no two benches ever write (or truncate)
      # the same BENCH_*.json concurrently.
      if TTDC_BENCH_DIR="$scratch/$name" "$bin" > "$scratch/$name/log" 2>&1; then
        echo 0 > "$scratch/$name/status"
      else
        echo 1 > "$scratch/$name/status"
      fi
    ) &
    while [ "$(jobs -rp | wc -l)" -ge "$jobs" ]; do
      wait -n || true
    done
  done
  wait || true
  for bin in "${bins[@]}"; do
    name="$(basename "$bin")"
    echo
    echo "=== $name ==="
    cat "$scratch/$name/log"
    if [ "$(cat "$scratch/$name/status")" != "0" ]; then
      echo "FAILED: $name" >&2
      status=1
    fi
    moved=0
    for report in "$scratch/$name"/BENCH_*.json; do
      [ -s "$report" ] || continue
      mv "$report" "$bench_dir/"
      moved=1
    done
    if [ "$moved" -eq 0 ]; then
      echo "MISSING REPORT: BENCH_${name#bench_}.json" >&2
      status=1
    fi
  done
fi

echo
echo "ran ${#bins[@]} benches; reports in $bench_dir:"
ls -1 "$bench_dir"/BENCH_*.json 2>/dev/null || true

# The EXIT trap (archive_reports) copies this run's reports into
# bench/history/<git-sha>/ — including on failure paths above.
exit "$status"
