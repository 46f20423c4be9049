#!/usr/bin/env python3
"""Run one workload of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the h2 library and the benchmark
binary from source (Release) into $CARGO_TARGET_DIR or .bench_build, runs the
workload, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics and writes a Chrome trace to
<build dir>/perfbench-out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d).resolve()


def build(bdir):
    """Configure once, then (re)build incrementally; the log stays in bdir."""
    cdir = bdir / "perfbench"
    cdir.mkdir(parents=True, exist_ok=True)
    log = cdir / "build.log"
    with open(log, "w") as out:
        if not (cdir / "CMakeCache.txt").exists():
            r = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(cdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                fail(f"configure failed, see {log}")
        r = subprocess.run(
            ["cmake", "--build", str(cdir), "--target", "h2perfbench",
             "-j", str(min(4, os.cpu_count() or 1))],
            stdout=out, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        fail(f"build failed, see {log}")
    return cdir / "h2perfbench"


def source_id():
    """The git commit when there is one, else a digest of the library sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "api" / "solver.hpp").exists():
        fail(f"{ROOT} is not an h2 source checkout with BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    # Every per-layer metric names the end-to-end metric and workload it
    # should move (metric_map.json); keep the two lists in step.
    mapped = json.loads((HERE / "metric_map.json").read_text())
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        fail("metric_map.json and BENCHMARK.json per_layer list different metrics")

    bdir = build_dir()
    exe = build(bdir)
    out_dir = bdir / "perfbench-out"
    # $H2_* variables change library defaults; the benchmark pins its own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("H2_")}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--commit", source_id()]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {r.returncode}")
    result = json.loads(lines[-1])
    got = list(result["metrics"])
    if sorted(got) != sorted(wanted):
        fail("metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))


if __name__ == "__main__":
    main()
