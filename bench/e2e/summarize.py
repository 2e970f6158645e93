#!/usr/bin/env python3
"""Merges the per-workload reports of bench/e2e/run.sh passes.

One pass: writes BENCH_e2e.json (BENCH_e2e.trace.json and e2e_trace.json for
a traced pass) into --out-dir. Several passes (--calibrate N): prints, per
workload and metric, the median over the passes and the interquartile range
as a share of the median (statistics.quantiles(values, n=4)), next to the
metric's BENCHMARK.json bound, and writes BENCH_e2e.calibrate.json.

Also checks that every metric BENCHMARK.json declares is reported by every
workload. Exits non-zero when a workload failed, a declared metric is
missing, or a calibrated spread exceeds its bound.
"""
import argparse
import json
import pathlib
import statistics
import sys


def load_passes(dirs, workloads, traced):
    suffix = ".trace.json" if traced else ".json"
    passes = []
    for d in dirs:
        reports = {}
        for w in workloads:
            path = pathlib.Path(d) / f"BENCH_e2e.{w}{suffix}"
            if path.exists():
                reports[w] = json.loads(path.read_text())
        passes.append(reports)
    return passes


def merge_traces(pass_dir, workloads, out_path):
    """Concatenates the per-workload Perfetto traces, one process group each."""
    events = []
    for i, w in enumerate(workloads):
        path = pathlib.Path(pass_dir) / f"e2e_trace.{w}.json"
        if not path.exists():
            continue
        for e in json.loads(path.read_text())["traceEvents"]:
            e = dict(e)
            e["pid"] = 10 * (i + 1) + e.get("pid", 0)
            if e.get("ph") == "M" and e.get("name") == "process_name":
                e["args"] = {"name": f"{w}: {e['args']['name']}"}
            events.append(e)
    out_path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")


def spread_rows(passes, workloads, declared):
    rows = []
    for w in workloads:
        for m in declared:
            values = [p[w]["metrics"][m["name"]]["value"] for p in passes
                      if w in p and m["name"] in p[w]["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "n": len(values), "median": med,
                         "iqr_over_median": (q3 - q1) / abs(med) if med else 0.0,
                         "bound": m.get("bound")})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", required=True, help="path to BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--calibrate", type=int, default=0)
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("passes", nargs="+", help="one directory of reports per pass")
    args = ap.parse_args()

    bench = json.loads(pathlib.Path(args.benchmark).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    passes = load_passes(args.passes, workloads, args.trace)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    statuses = []
    for reports in passes:
        for w, r in reports.items():
            statuses.append(r["status"])
            missing = [m["name"] for m in declared if m["name"] not in r["metrics"]]
            if missing:
                print(f"{w}: BENCHMARK.json metrics not reported: {missing}", file=sys.stderr)
                ok = False
    if not statuses or "failed" in statuses or not ok:
        status = "failed"
    elif "host_mismatch" in statuses:
        status = "host_mismatch"
    else:
        status = "ok"

    if args.calibrate:
        rows = spread_rows(passes, workloads, declared)
        for r in rows:
            line = (f"{r['workload']}.{r['metric']} median {r['median']:.6g} {r['unit']}"
                    f" iqr/median {r['iqr_over_median']:.4f} (n={r['n']})")
            if r["bound"] is not None:
                over = r["iqr_over_median"] > r["bound"]
                ok = ok and not over
                line += f" bound {r['bound']} {'OVER' if over else 'within'}"
            print(line)
        first = next((r for p in passes for r in p.values()), {})
        (out_dir / "BENCH_e2e.calibrate.json").write_text(json.dumps(
            {"name": "e2e.calibrate", "status": status, "passes": len(passes),
             "params": first.get("params", {}), "rows": rows}, indent=1) + "\n")
    elif args.trace:
        (out_dir / "BENCH_e2e.trace.json").write_text(json.dumps(
            {"name": "e2e.trace", "status": status, "workloads": passes[0]}, indent=1) + "\n")
        merge_traces(args.passes[0], workloads, out_dir / "e2e_trace.json")
    else:
        (out_dir / "BENCH_e2e.json").write_text(json.dumps(
            {"name": "e2e", "status": status, "workloads": passes[0]}, indent=1) + "\n")

    if not ok and status != "failed":
        status = "failed"
    print(f"e2e.status {status}")
    return 1 if status == "failed" else 0


if __name__ == "__main__":
    sys.exit(main())
