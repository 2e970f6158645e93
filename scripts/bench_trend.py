#!/usr/bin/env python3
"""Compare bench reports across runs and against the committed baselines.

Default mode reads the newest BENCH_<name>.json reports from the repo root
and prints a per-bench trend table against
bench/baselines/BENCH_<name>.baseline.json. With --history the comparison
is between the two most recent bench/history/<sha>/ archives written by
scripts/run_benches.sh (newest vs previous: the actual run-to-run trend).
A gated bench (one with a committed baseline) whose report names a
different host (params host.cores / host.cpu, which every BenchReport
records) than the report it is compared with gets a "host mismatch" line:
its speedups were measured on another machine. A metric is flagged only
when it leaves the noise band (default +/-10%);
*_speedup and *_slots_per_sec metrics are treated as higher-is-better,
*_seconds and *_overhead* as lower-is-better, everything else is reported
informationally.

Missing inputs are never a traceback: fewer than two history snapshots, a
bench present in one snapshot but not the other, or an unreadable report
all print a short explanation and the script moves on (or exits 0 when
there is nothing at all to compare).

With --e2e BEFORE AFTER it compares two traced bench/e2e ledgers
(BENCH_e2e.trace.json from `bench/e2e/run.sh --trace`): per workload, every
slot-loop phase's ns/slot with its share of sim.step.ns_per_slot on both
sides, then the phase whose ns/slot moved most. When the two sides step a
different number of slots (sim.slots_stepped moved out of band, say because
a change stops stepping slots that do nothing), ns per stepped slot is no
longer comparable: each phase is then compared by its time per rep (ns/slot
x sim.slots_stepped) beside sim.run.unstepped_s, the phase that moved most is
named by that measure, and only a rise in time per rep is flagged. A host
mismatch and a workload missing from either side are one line each.

Exit status is always 0 unless --strict is given (CI runs it non-fatally:
the hard perf gates live in run_benches.sh --perf-check; this script is
for humans watching drift).

Usage: scripts/bench_trend.py [--band 0.10] [--history] [--strict]
       scripts/bench_trend.py --e2e BEFORE AFTER [--band 0.10] [--strict]
"""

import argparse
import glob
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_report(path):
    """Returns (report dict, None), or (None, message) when unreadable."""
    try:
        with open(path) as f:
            return json.load(f), None
    except (OSError, json.JSONDecodeError) as err:
        return None, f"  (unreadable report {os.path.relpath(path, REPO_ROOT)}: {err})"


def gate_note(label, report):
    """' [<label> gate skipped: <reason>]' when the report's gate did not run."""
    reason = report.get("params", {}).get("gate_skipped")
    return f"  [{label} gate skipped: {reason}]" if reason else ""


def history_runs():
    """History snapshot dirs, oldest first."""
    return sorted(
        glob.glob(os.path.join(REPO_ROOT, "bench", "history", "*")),
        key=os.path.getmtime,
    )


def classify(key):
    """Returns (direction, gated): +1 higher-is-better, -1 lower, 0 info."""
    if key.endswith("_speedup") or key.endswith("_slots_per_sec"):
        return 1, True
    if key.endswith("_seconds") or "_overhead" in key:
        return -1, True
    return 0, False


def bench_names(report_dir):
    paths = glob.glob(os.path.join(report_dir, "BENCH_*.json"))
    return {os.path.basename(p)[len("BENCH_"):-len(".json")] for p in paths}


HOST_KEYS = ("host.cpu", "host.cores")


def host_mismatch(before, after):
    """'<key> <before> vs <after>' for each host param the two reports differ in."""
    b, a = before.get("params", {}), after.get("params", {})
    return [f"{key} {b.get(key)!r} vs {a.get(key)!r}" for key in HOST_KEYS
            if b.get(key) != a.get(key)]


def gated_benches():
    """Names of the benches with a committed baseline (the perf-gated ones)."""
    paths = glob.glob(os.path.join(REPO_ROOT, "bench", "baselines", "BENCH_*.baseline.json"))
    return {os.path.basename(p)[len("BENCH_"):-len(".baseline.json")] for p in paths}


def compare(name, baseline_path, report_path, band, regressions, problems):
    if not os.path.exists(report_path):
        print(f"== {name} ==\n  (no current report; run scripts/run_benches.sh)\n")
        return
    base_report, base_err = load_report(baseline_path)
    cur_report, cur_err = load_report(report_path)
    # A skipped gate is named on the header line: its "ok" is not a pass.
    print(f"== {name} ==" + gate_note("current", cur_report or {}) +
          gate_note("baseline", base_report or {}))
    if base_err or cur_err:
        print("\n".join(e for e in (base_err, cur_err) if e) + "\n")
        return
    mismatched = host_mismatch(base_report, cur_report) if name in gated_benches() else []
    if mismatched:
        print("  host mismatch: " + "; ".join(mismatched))
        problems.append(f"{name}: host mismatch")
    base = base_report.get("metrics", {})
    cur = cur_report.get("metrics", {})
    # Union of keys: metrics added since the baseline/previous snapshot
    # (e.g. the fast-forward split in BENCH_lifetime) surface as "(new)"
    # informational rows instead of being silently dropped — and never
    # count as regressions, so --strict stays safe across snapshots that
    # straddle the metric's introduction.
    for key in sorted(set(base) | set(cur)):
        if key not in base:
            c = cur[key]
            shown = f"{c:>12.4g}" if isinstance(c, (int, float)) else f"{c!r:>12}"
            print(f"  {key:40s} baseline      (new)    current {shown}")
            continue
        b, c = base[key], cur.get(key)
        if c is None:
            print(f"  {key:40s} baseline {b:>12.4g}  current      MISSING")
            continue
        direction, gated = classify(key)
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            print(f"  {key:40s} baseline {b!r:>12}  current {c!r:>12}")
            continue
        # Near-zero baselines (overhead fractions jittering around 0)
        # make relative deltas explode; compare those absolutely.
        delta = (c - b) / abs(b) if abs(b) > 0.05 else (c - b)
        verdict = ""
        if gated and abs(delta) > band:
            worse = (direction > 0 and delta < 0) or (direction < 0 and delta > 0)
            verdict = "REGRESSED" if worse else "improved"
            if worse:
                regressions.append(f"{name}:{key} {delta:+.1%}")
        print(f"  {key:40s} baseline {b:>12.4g}  current {c:>12.4g}  {delta:+7.1%} {verdict}")
    print()


# The slot loop's phases in the bench/e2e ledger: self time of each span
# per stepped slot. Together they add up to sim.step.ns_per_slot.
E2E_PHASES = [
    ("traffic", "sim.step.traffic.ns_per_slot"),
    ("fill", "sim.mac.fill.ns_per_slot"),
    ("collect", "sim.step.collect.ns_per_slot"),
    ("resolve", "sim.step.resolve.ns_per_slot"),
    ("energy", "sim.step.energy.ns_per_slot"),
    ("self", "sim.step.self.ns_per_slot"),
]
E2E_STEP = "sim.step.ns_per_slot"
E2E_STEPPED = "sim.slots_stepped"
E2E_UNSTEPPED = "sim.run.unstepped_s"


def e2e_workloads(path):
    """{workload: report} from a BENCH_e2e(.trace).json, or (None, message)."""
    report, err = load_report(path)
    if err:
        return None, err
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        return None, f"  ({path}: no 'workloads' object; not a bench/e2e report)"
    return workloads, None


def e2e_metric(report, name):
    entry = report.get("metrics", {}).get(name)
    if isinstance(entry, dict):
        entry = entry.get("value")
    return entry if isinstance(entry, (int, float)) else None


def compare_e2e(before_path, after_path, band, regressions):
    """Per-workload phase ledger of two traced e2e reports; returns problems."""
    before, err_b = e2e_workloads(before_path)
    after, err_a = e2e_workloads(after_path)
    if err_b or err_a:
        print("\n".join(e for e in (err_b, err_a) if e))
        return ["unreadable report"]
    print(f"before: {before_path}")
    print(f"after:  {after_path}\n")
    problems = []
    for w in sorted(set(before) | set(after)):
        if w not in after or w not in before:
            side = "after" if w not in after else "before"
            print(f"== {w} ==  missing from {side}; not compared\n")
            problems.append(f"{w}: missing from {side}")
            continue
        b, a = before[w], after[w]
        mismatched = host_mismatch(b, a)
        print(f"== {w} ==")
        if mismatched:
            print("  host mismatch: " + "; ".join(mismatched))
            problems.append(f"{w}: host mismatch")
        step_b, step_a = e2e_metric(b, E2E_STEP), e2e_metric(a, E2E_STEP)
        if not step_b or not step_a:
            print(f"  no {E2E_STEP} on both sides (untraced report?); not compared\n")
            problems.append(f"{w}: untraced")
            continue
        stepped_b, stepped_a = e2e_metric(b, E2E_STEPPED), e2e_metric(a, E2E_STEPPED)
        if stepped_b and stepped_a and abs(stepped_a - stepped_b) / stepped_b > band:
            compare_e2e_per_rep(w, b, a, stepped_b, stepped_a, band, regressions)
            continue
        print(f"  {'phase':10s} {'before ns/slot':>15s} {'share':>6s} "
              f"{'after ns/slot':>14s} {'share':>6s} {'delta':>10s}")
        moved = None
        for label, key in E2E_PHASES + [("step", E2E_STEP)]:
            vb, va = e2e_metric(b, key), e2e_metric(a, key)
            if vb is None or va is None:
                print(f"  {label:10s} {'MISSING':>15s}")
                continue
            delta = va - vb
            print(f"  {label:10s} {vb:15.1f} {vb / step_b:6.1%} {va:14.1f} {va / step_a:6.1%} "
                  f"{delta:+10.1f}")
            if label == "step":
                continue
            if moved is None or abs(delta) > abs(moved[1]):
                moved = (label, delta, vb / step_b, va / step_a)
            if vb > 0 and (va - vb) / vb > band:
                regressions.append(f"{w}:{key} {(va - vb) / vb:+.1%}")
        if moved is not None:
            label, delta, share_b, share_a = moved
            direction = "grew" if delta > 0 else "shrank"
            print(f"  moved most: {label} ({direction} {abs(delta):.1f} ns/slot, "
                  f"share {share_b:.1%} -> {share_a:.1%})")
        print()
    return problems


def compare_e2e_per_rep(w, b, a, stepped_b, stepped_a, band, regressions):
    """One workload's phases by time per rep, for two sides that step a
    different number of slots: a phase's ns/slot times the slots it ran
    over, beside the run time spent outside sim.step."""
    print(f"  {E2E_STEPPED} {stepped_b:,.0f} -> {stepped_a:,.0f} "
          f"({(stepped_a - stepped_b) / stepped_b:+.1%}): ns per stepped slot not "
          "comparable, phases compared by time per rep")
    print(f"  {'phase':10s} {'before ms/rep':>14s} {'after ms/rep':>13s} {'delta ms':>10s}")
    moved = None
    rows = [(label, key, 1e-6 * stepped_b, 1e-6 * stepped_a) for label, key in E2E_PHASES]
    rows += [("unstepped", E2E_UNSTEPPED, 1e3, 1e3), ("step", E2E_STEP, 1e-6 * stepped_b,
                                                        1e-6 * stepped_a)]
    for label, key, scale_b, scale_a in rows:
        vb, va = e2e_metric(b, key), e2e_metric(a, key)
        if vb is None or va is None:
            print(f"  {label:10s} {'MISSING':>14s}")
            continue
        mb, ma = vb * scale_b, va * scale_a
        print(f"  {label:10s} {mb:14.3f} {ma:13.3f} {ma - mb:+10.3f}")
        if label == "step":
            continue
        if moved is None or abs(ma - mb) > abs(moved[1]):
            moved = (label, ma - mb)
        if mb > 0 and (ma - mb) / mb > band:
            regressions.append(f"{w}:{key} per rep {(ma - mb) / mb:+.1%}")
    if moved is not None:
        label, delta = moved
        direction = "grew" if delta > 0 else "shrank"
        print(f"  moved most: {label} ({direction} {abs(delta):.3f} ms/rep)")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--band", type=float, default=0.10,
                    help="relative noise band before a change is flagged")
    ap.add_argument("--history", action="store_true",
                    help="compare the two newest bench/history/<sha>/ "
                         "archives instead of repo-root reports vs baselines")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when any gated metric degrades out of band")
    ap.add_argument("--e2e", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare the phase ledgers of two traced bench/e2e "
                         "reports (BENCH_e2e.trace.json)")
    args = ap.parse_args()

    regressions = []
    problems = []
    if args.e2e:
        problems = compare_e2e(args.e2e[0], args.e2e[1], args.band, regressions)
        if regressions:
            print("phases that grew out of band (informational unless --strict):")
            for r in regressions:
                print(f"  {r}")
        return 1 if args.strict and (problems or regressions) else 0
    if args.history:
        runs = history_runs()
        if len(runs) < 2:
            have = ", ".join(os.path.basename(r) for r in runs) or "none"
            print(f"bench/history/ has {len(runs)} snapshot(s) ({have}); "
                  "need two to show a trend — run scripts/run_benches.sh "
                  "on two commits first")
            return 0
        prev_dir, cur_dir = runs[-2], runs[-1]
        print(f"previous: {prev_dir}")
        print(f"current:  {cur_dir}")
        print(f"noise band: +/-{args.band:.0%}\n")
        names = bench_names(prev_dir) | bench_names(cur_dir)
        if not names:
            print("neither snapshot contains any BENCH_*.json; nothing to compare")
            return 0
        for name in sorted(names):
            prev_path = os.path.join(prev_dir, f"BENCH_{name}.json")
            cur_path = os.path.join(cur_dir, f"BENCH_{name}.json")
            if not os.path.exists(prev_path):
                print(f"== {name} ==\n  (new in {os.path.basename(cur_dir)}; "
                      "no previous snapshot to trend against)\n")
                continue
            if not os.path.exists(cur_path):
                print(f"== {name} ==\n  (present in {os.path.basename(prev_dir)} "
                      f"but missing from {os.path.basename(cur_dir)})\n")
                continue
            compare(name, prev_path, cur_path, args.band, regressions, problems)
    else:
        report_dir = REPO_ROOT
        baseline_dir = os.path.join(REPO_ROOT, "bench", "baselines")
        baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.baseline.json")))
        if not baselines:
            print("no baselines under bench/baselines/; nothing to compare")
            return 0
        print(f"reports:   {report_dir}")
        print(f"baselines: {baseline_dir}")
        print(f"noise band: +/-{args.band:.0%}\n")
        for baseline_path in baselines:
            name = os.path.basename(baseline_path)
            name = name[len("BENCH_"):-len(".baseline.json")]
            report_path = os.path.join(report_dir, f"BENCH_{name}.json")
            compare(name, baseline_path, report_path, args.band, regressions, problems)

    if problems:
        print("reports not comparable (informational unless --strict):")
        for p in problems:
            print(f"  {p}")
    if regressions:
        print("out-of-band regressions (informational unless --strict):")
        for r in regressions:
            print(f"  {r}")
    else:
        print("no gated metric left the noise band")
    return 1 if args.strict and (problems or regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
