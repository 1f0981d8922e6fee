#!/usr/bin/env python3
"""Schema validation for the observability artifacts.

Validates the two machine-readable artifacts the obs layer emits:

  * a Chrome trace-event JSON (``obs::to_chrome_trace``) — must be loadable
    by Perfetto/chrome://tracing: complete ("X") events with microsecond
    ts/dur, integer pid/tid lanes, span id/parent args, and categories drawn
    from the cost-attribution taxonomy;
  * a registry snapshot (``obs::Registry::snapshot_json``) — counters,
    gauges and histogram summaries as named, labelled series;
  * a leakage report (``bench/leak_sweep --report``) — panels of
    attacker-view trace distinguishability scores (kernel baseline vs
    oblivious, per secret model and platform) plus overhead entries.

stdlib only; exits non-zero with a per-file error report on any violation.

Usage: validate_obs.py --trace obs_trace.json --metrics obs_metrics.json
       validate_obs.py --leak-report BENCH_leak_report.json
"""

import argparse
import json
import numbers
import sys

# Mirrors obs::Category (src/obs/trace.h). Keep in sync.
CATEGORIES = {
    "ecall", "ocall", "gcm", "plain_copy", "boundary_copy", "epc_paging",
    "compute", "pm_store", "pm_read", "pm_flush", "pm_fence", "romulus_tx",
    "ssd", "mirror_save", "mirror_restore", "train_iter", "data_batch",
    "scrub", "serve_batch", "serve_queue", "serve_decrypt", "serve_forward",
    "serve_seal", "serve_other", "pipeline_seal", "pipeline_stall", "other",
}


def is_num(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def validate_trace(path, errors):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level must be an object")
        return
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append(f"{path}: displayTimeUnit must be 'ms' or 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append(f"{path}: traceEvents must be a non-empty array")
        return
    ids = set()
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        if ev.get("ph") != "X":
            errors.append(f"{where}: ph must be 'X' (complete event)")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing span name")
        if ev.get("cat") not in CATEGORIES:
            errors.append(f"{where}: unknown category {ev.get('cat')!r}")
        if not is_num(ev.get("ts")) or ev["ts"] < 0:
            errors.append(f"{where}: ts must be a non-negative number (us)")
        if not is_num(ev.get("dur")) or ev["dur"] < 0:
            errors.append(f"{where}: dur must be a non-negative number (us)")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: pid/tid must be integers")
        args = ev.get("args")
        if not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
            continue
        if not isinstance(args.get("id"), int) or args["id"] <= 0:
            errors.append(f"{where}: args.id must be a positive integer")
        elif args["id"] in ids:
            errors.append(f"{where}: duplicate span id {args['id']}")
        else:
            ids.add(args["id"])
        if not isinstance(args.get("parent"), int) or args["parent"] < 0:
            errors.append(f"{where}: args.parent must be a non-negative integer")
    print(f"{path}: {len(events)} trace events, "
          f"{len({e.get('cat') for e in events if isinstance(e, dict)})} categories")


def validate_series(path, entries, kind, extra_check, errors):
    if not isinstance(entries, list):
        errors.append(f"{path}: {kind} must be an array")
        return
    for i, s in enumerate(entries):
        where = f"{path}: {kind}[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(s.get("name"), str) or not s["name"]:
            errors.append(f"{where}: missing series name")
        labels = s.get("labels")
        if not isinstance(labels, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in labels.items()):
            errors.append(f"{where}: labels must be a string->string object")
        extra_check(where, s)


def validate_metrics(path, errors):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level must be an object")
        return
    for key in ("counters", "gauges", "histograms"):
        if key not in doc:
            errors.append(f"{path}: missing {key!r} array")
    def check_counter(where, s):
        v = s.get("value")
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append(f"{where}: counter value must be a non-negative integer")
    def check_gauge(where, s):
        if not is_num(s.get("value")):
            errors.append(f"{where}: gauge value must be a number")
    def check_histogram(where, s):
        for field in ("count", "sum", "min", "max", "mean", "p50", "p95", "p99"):
            if not is_num(s.get(field)):
                errors.append(f"{where}: histogram missing numeric {field!r}")
                return
        if s["count"] > 0 and not (s["min"] <= s["p50"] <= s["p99"] <= s["max"]):
            errors.append(f"{where}: percentiles must be ordered within [min, max]")
    validate_series(path, doc.get("counters", []), "counters", check_counter, errors)
    validate_series(path, doc.get("gauges", []), "gauges", check_gauge, errors)
    validate_series(path, doc.get("histograms", []), "histograms",
                    check_histogram, errors)
    n = sum(len(doc.get(k, [])) for k in ("counters", "gauges", "histograms"))
    if n == 0:
        errors.append(f"{path}: snapshot has no series at all")
    print(f"{path}: {n} metric series")

    # Feed the cross-file presence checks (--require-gauge/-counter/-label).
    def names(kind):
        return {s.get("name") for s in doc.get(kind, [])
                if isinstance(s, dict) and isinstance(s.get("name"), str)}
    labels = set()
    for kind in ("counters", "gauges", "histograms"):
        for s in doc.get(kind, []):
            if isinstance(s, dict) and isinstance(s.get("labels"), dict):
                labels.update(f"{k}={v}" for k, v in s["labels"].items())
    return names("gauges"), names("counters"), labels


LEAK_KERNELS = {"baseline", "oblivious"}
LEAK_SECRETS = {"input", "weights", "shuffle"}
LEAK_REPORT_FIELDS = (
    "traces", "distinct", "pairs", "distinguishable_pairs", "min_events",
    "max_events", "page_events", "branch_events", "mean_edit_distance",
    "max_edit_distance", "mean_position_entropy_bits", "score",
)


def validate_leak_report(path, errors):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level must be an object")
        return
    panels = doc.get("panels")
    if not isinstance(panels, list) or not panels:
        errors.append(f"{path}: panels must be a non-empty array")
        return
    for i, p in enumerate(panels):
        where = f"{path}: panels[{i}]"
        if not isinstance(p, dict):
            errors.append(f"{where}: not an object")
            continue
        for field in ("name", "platform"):
            if not isinstance(p.get(field), str) or not p[field]:
                errors.append(f"{where}: missing string {field!r}")
        if p.get("kernel") not in LEAK_KERNELS:
            errors.append(f"{where}: kernel must be one of {sorted(LEAK_KERNELS)}")
        if p.get("secret") not in LEAK_SECRETS:
            errors.append(f"{where}: secret must be one of {sorted(LEAK_SECRETS)}")
        rep = p.get("report")
        if not isinstance(rep, dict):
            errors.append(f"{where}: report must be an object")
            continue
        for field in LEAK_REPORT_FIELDS:
            if not is_num(rep.get(field)):
                errors.append(f"{where}: report missing numeric {field!r}")
        score = rep.get("score")
        if is_num(score) and not 0.0 <= score <= 1.0:
            errors.append(f"{where}: score must be within [0, 1]")
        if is_num(rep.get("distinct")) and is_num(rep.get("traces")):
            if not 0 < rep["distinct"] <= rep["traces"]:
                errors.append(f"{where}: need 0 < distinct <= traces")
        # The headline contract the sweep asserts at runtime; re-checked here
        # so a stale or hand-edited artifact can't pass CI.
        if p.get("kernel") == "oblivious" and is_num(rep.get("distinct")):
            if rep["distinct"] != 1 or rep.get("score") != 0:
                errors.append(f"{where}: oblivious panel must have distinct == 1 "
                              "and score == 0")
    overhead = doc.get("overhead")
    if not isinstance(overhead, list) or not overhead:
        errors.append(f"{path}: overhead must be a non-empty array")
    else:
        for i, o in enumerate(overhead):
            where = f"{path}: overhead[{i}]"
            if not isinstance(o, dict) or not isinstance(o.get("platform"), str):
                errors.append(f"{where}: needs a string 'platform'")
                continue
            for field in ("forward_wall_ratio", "shuffle_wall_ratio"):
                if not is_num(o.get(field)) or o[field] < 0:
                    errors.append(f"{where}: {field} must be a non-negative number")
    print(f"{path}: {len(panels)} leakage panels, "
          f"{len({p.get('platform') for p in panels if isinstance(p, dict)})} platforms")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", action="append", default=[],
                    help="Chrome trace-event JSON to validate (repeatable)")
    ap.add_argument("--metrics", action="append", default=[],
                    help="registry snapshot JSON to validate (repeatable)")
    ap.add_argument("--leak-report", action="append", default=[],
                    help="leak_sweep report JSON to validate (repeatable)")
    ap.add_argument("--require-gauge", action="append", default=[],
                    help="fail unless some --metrics file has a gauge whose "
                         "name starts with this prefix (repeatable)")
    ap.add_argument("--require-counter", action="append", default=[],
                    help="fail unless some --metrics file has a counter whose "
                         "name starts with this prefix (repeatable)")
    ap.add_argument("--require-label", action="append", default=[],
                    help="fail unless some --metrics file has a series with "
                         "this key=value label (repeatable)")
    args = ap.parse_args()
    if not args.trace and not args.metrics and not args.leak_report:
        ap.error("nothing to validate: pass --trace, --metrics and/or --leak-report")

    errors = []
    for path in args.trace:
        try:
            validate_trace(path, errors)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: {e}")
    seen_gauges, seen_counters, seen_labels = set(), set(), set()
    for path in args.metrics:
        try:
            result = validate_metrics(path, errors)
            if result is not None:
                seen_gauges |= result[0]
                seen_counters |= result[1]
                seen_labels |= result[2]
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: {e}")
    for path in args.leak_report:
        try:
            validate_leak_report(path, errors)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: {e}")

    # Presence checks: CI pins named panels (e.g. fig6.crossover) and label
    # values (e.g. model=int8) so a bench silently dropping a series fails
    # loudly instead of shipping an empty artifact. Satisfied by any one of
    # the --metrics files.
    for kind, prefixes, seen in (("gauge", args.require_gauge, seen_gauges),
                                 ("counter", args.require_counter, seen_counters)):
        for prefix in prefixes:
            if not any(name.startswith(prefix) for name in seen):
                errors.append(f"no '{prefix}*' {kind} in any --metrics file "
                              f"(--require-{kind})")
    for pair in args.require_label:
        if pair not in seen_labels:
            errors.append(
                f"no series labelled '{pair}' in any --metrics file (--require-label)")

    if errors:
        print(f"{len(errors)} schema violation(s):", file=sys.stderr)
        for e in errors[:50]:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("obs artifacts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
