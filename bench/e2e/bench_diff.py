#!/usr/bin/env python3
"""Compare two sets of plinius_e2e result files against BENCHMARK.json bounds.

    python3 bench/e2e/bench_diff.py --base DIR_OR_FILE... --head DIR_OR_FILE...

Each side is a set of result files written by plinius_e2e --out (run.py keeps
them under .bench_build/e2e/results/); a directory stands for its *.json
files. Runs are grouped by workload. For every workload x metric the table
shows each side's median and quartiles, the change of the medians, and a
verdict:

  same        the medians differ by less than the metric's bound
  better      the head's median is better by more than the bound
  worse       the head's median is worse by more than the bound
  unresolved  a side's quartile spread (as a share of its median) exceeds the
              bound, and neither side beats the other on every run
  refused     a simulated (.sim) metric from runs whose cost-model
              fingerprints differ: an edited cost constant is not a speed-up
  info        per-layer metric: no bound, medians only

End-to-end metrics are taken from untraced runs, per-layer ones from traced
runs. Exit status: 2 if any comparison was refused, 1 if any metric is
worse, else 0. A gain claim needs more than this table; README.md says
what (alternating pairs, nine-tenths wins).
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    """Returns ({workload: {traced: [metrics, ...]}}, {fingerprints})."""
    files = []
    for p in map(Path, paths):
        if p.is_dir():
            files += sorted(f for f in p.glob("*.json") if not f.name.endswith(".spans.json"))
        else:
            files.append(p)
    runs, prints = {}, set()
    for f in files:
        doc = json.loads(f.read_text())
        prints.add(doc["fingerprint"])
        for run in doc["runs"]:
            by_mode = runs.setdefault(run["workload"], {})
            by_mode.setdefault(bool(run["traced"]), []).append(run["metrics"])
    return runs, prints


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def is_sim(name):
    return "sim" in name.split(".")


def verdict(spec, a, b, fingerprints_match):
    if is_sim(spec["name"]) and not fingerprints_match:
        return "refused"
    if "bound" not in spec:
        return "info"
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    med_a, q1a, q3a = summary(a)
    med_b, q1b, q3b = summary(b)
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    b_beats_all = max(b) < min(a) if lower else min(b) > max(a)
    b_loses_all = min(b) > max(a) if lower else max(b) < min(a)
    if spread > bound:
        return "better" if b_beats_all else "worse" if b_loses_all else "unresolved"
    worse_by = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if not lower:
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def fmt(values):
    med, q1, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, base_prints = load(args.base)
    head, head_prints = load(args.head)
    fingerprints_match = len(base_prints | head_prints) <= 1
    if not fingerprints_match:
        print(f"# cost-model fingerprints differ ({sorted(base_prints)} vs "
              f"{sorted(head_prints)}): .sim metrics are not compared")

    counts = {}
    print(f"{'workload':16s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            a_runs = base.get(workload, {}).get(traced, [])
            b_runs = head.get(workload, {}).get(traced, [])
            if not a_runs or not b_runs:
                continue
            for m in metrics:
                a = [r[m["name"]]["value"] for r in a_runs if m["name"] in r]
                b = [r[m["name"]]["value"] for r in b_runs if m["name"] in r]
                if not a or not b:
                    continue
                v = verdict(m, a, b, fingerprints_match)
                counts[v] = counts.get(v, 0) + 1
                med_a = statistics.median(a)
                change = (statistics.median(b) - med_a) / abs(med_a) * 100 if med_a else 0.0
                print(f"{workload:16s} {m['name']:30s} {fmt(a):>34s} {fmt(b):>34s} "
                      f"{change:+7.2f}%  {v}")
    print("# " + ", ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    if counts.get("refused"):
        return 2
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
