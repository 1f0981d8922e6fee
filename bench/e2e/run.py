#!/usr/bin/env python3
"""Build and run the plinius_e2e benchmark; print one JSON result line.

    python3 bench/e2e/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --smoke [--bin PATH]

Run from the repository root. The first call configures and builds the
benchmark (and the module libraries it links) under .bench_build/e2e; later
calls only re-check the build. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1, as BENCHMARK.json lists them. The binary's own result file (with
the cost-model fingerprint bench_diff.py needs) is kept as
<results>/<workload>-seed<N>-trace<T>.json, where --results defaults to
.bench_build/e2e/results; the traced run's Chrome trace sits beside it as
<workload>-seed<N>-trace1.spans.json.

--smoke runs every workload in both modes at ~1/20 of the work and checks
that each run passes its correctness checks and reports exactly the
BENCHMARK.json metrics, with matching units and well-formed names.
"""
import argparse
import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds plinius_e2e; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "plinius_e2e",
                        "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD / "plinius_e2e"


def run_binary(binary, workload, seed, seconds, trace, results, smoke=False):
    """Runs one workload; returns (exit code, the binary's run record)."""
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = results / f"{stem}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd += ["--traced", str(results / f"{stem}.spans.json")]
    if smoke:
        cmd.append("--smoke")
    if out.exists():
        out.unlink()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not out.exists():
        return proc.returncode or 1, None
    return proc.returncode, json.loads(out.read_text())["runs"][0]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def smoke(binary, results):
    problems = []
    for trace in (0, 1):
        expected, workloads = expected_metrics(trace)
        for workload in workloads:
            rc, rec = run_binary(binary, workload, 1, 10, trace, results, smoke=True)
            where = f"{workload} trace={trace}"
            if rec is None:
                problems.append(f"{where}: no result (exit {rc})")
                continue
            problems += [f"{where}: {f}" for f in rec["failures"]]
            got = {name: m["unit"] for name, m in rec["metrics"].items()}
            problems += [f"{where}: missing {n}" for n in sorted(set(expected) - set(got))]
            problems += [f"{where}: unlisted {n}" for n in sorted(set(got) - set(expected))]
            problems += [f"{where}: {n} unit {got[n]} != {u}"
                         for n, u in expected.items() if n in got and got[n] != u]
            problems += [f"{where}: bad name {n}" for n in got if not NAME_RE.fullmatch(n)]
    for p in problems:
        log(f"smoke: {p}")
    log("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this plinius_e2e instead of building one")
    ap.add_argument("--results", type=Path, default=BUILD / "results",
                    help="directory for the binary's result files (bench_diff.py input)")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    try:
        binary = Path(args.bin) if args.bin else build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    if args.smoke:
        return smoke(binary, args.results)

    try:
        rc, rec = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                             args.results)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if rec is None:
        log(f"run.py: {args.workload} produced no result (exit {rc})")
        return 1
    expected, _ = expected_metrics(args.trace)
    result = {
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {n: rec["metrics"][n] for n in expected if n in rec["metrics"]},
    }
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
