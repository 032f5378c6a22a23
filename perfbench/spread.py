#!/usr/bin/env python3
"""Run-to-run spread of the awd benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per (workload, seed) and reports, per end-to-end
metric, the median over seeds and the spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median.  A spread is "steady" below a third of the metric's bound in
BENCHMARK.json.  With --compare, the first seed is the reference and every
other seed's value must lie within the bound of it (the unseen-seed check).
The summary is also written to .bench_out/spread.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--compare", action="store_true",
                    help="check every seed against the first one's values")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = config["end_to_end"]

    summary = {}
    worst = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect run")
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)
        rows = {}
        for m in metrics:
            values = [r[m["name"]]["value"] for r in runs]
            med, share = spread(values)
            row = {"values": values, "median": med, "iqr_share": share, "bound": m["bound"],
                   "steady": share < m["bound"] / 3}
            if args.compare:
                ref = values[0]
                worse = [((v - ref) / ref if m["better"] == "lower" else (ref - v) / ref)
                         for v in values[1:]]
                row["worst_vs_first"] = max(worse) if worse else 0.0
                row["within_bound"] = all(w <= m["bound"] for w in worse)
                worst = worst and row["within_bound"]
            rows[m["name"]] = row
            note = "steady" if row["steady"] else "NOT steady"
            extra = ""
            if args.compare:
                extra = f"  worst vs seed {seeds[0]} {row['worst_vs_first']:+.3f} " + (
                    "within bound" if row["within_bound"] else "OUT OF BOUND")
            print(f"  {workload:18s} {m['name']:14s} median {med:.6g}  spread {share:.4f}"
                  f"  bound {m['bound']}  {note}{extra}", flush=True)
        summary[workload] = rows
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps({"seeds": seeds, "workloads": summary},
                                                indent=2) + "\n")
    sys.exit(0 if worst else 1)


if __name__ == "__main__":
    main()
