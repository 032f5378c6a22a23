#!/usr/bin/env python3
"""Run one workload of the awd benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and awd_perfbench from source into .bench_build/perfbench
(incremental after the first run), runs the benchmark's own unit tests, then
one measurement run.  Prints awd_perfbench's per-metric lines and, as the last
line, {"correct", "attempted", "failed", "metrics"} holding the metrics
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer list
with --trace 1.  The full result (host record, every metric, settings, span
aggregates) goes to .bench_out/.  Exit code 0 only for a correct run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Wall-clock limits for one invocation, build included: 175 s normally,
# 890 s when the build tree is new.  The build may use all but the last
# 120 s; the measurement run gets whatever is left.
RUN_LIMIT_S = 175
FIRST_BUILD_LIMIT_S = 890
RUN_RESERVE_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir, deadline):
    env = dict(os.environ)
    tmp = build_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries inside the checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(build_dir), "--target", "awd_perfbench",
                  "perfbench_tests", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            fail("build failed")


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources missing under {root / 'src'}; run from a full checkout")
    config = json.loads((root / "BENCHMARK.json").read_text())
    names = {w["name"] for w in config["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {sorted(names)}")
    wanted = config["per_layer" if args.trace else "end_to_end"]

    build_dir = root / ".bench_build" / "perfbench"
    first_build = not (build_dir / "awd_perfbench").exists()
    deadline = start + (FIRST_BUILD_LIMIT_S if first_build else RUN_LIMIT_S)
    build(root, build_dir, deadline - RUN_RESERVE_S)
    tests = subprocess.run([str(build_dir / "perfbench_tests")], capture_output=True, text=True)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout + tests.stderr)
        fail("benchmark unit tests failed")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(build_dir / "awd_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir / f"{stem}.json"),
           "--commit", git_commit(root), "--src-digest", source_digest(root / "src")]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"{stem}-spans.jsonl")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(run.stderr)
        fail(f"no output (exit code {run.returncode})")
    try:
        full = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout + run.stderr)
        fail("last output line is not JSON")

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run's output")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    sys.stderr.write(run.stderr)
    for line in lines[:-1]:
        print(line)
    result = {"correct": bool(full["correct"]) and run.returncode == 0,
              "attempted": int(full["attempted"]), "failed": int(full["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
