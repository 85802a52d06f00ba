#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

Usage:
    python3 bench/compare_bench_json.py BASELINE.json CANDIDATE.json \
        [--threshold 0.10] [--metric auto|real_time|items_per_second]

Benchmarks are matched by name. With --metric auto (the default) a row is
compared on items_per_second when both sides report it (higher is better),
falling back to real_time (lower is better). Rows that report a gated
counter are additionally gated on it, lower is better: p95_lag_ts (the
replay catch-up benchmarks' 95th-percentile freshness lag — a replica that
"keeps up" must not start lagging even when its throughput holds) and the
partial-replication volume counters updates_per_sink / bytes_per_sink (a
partitioned sink must not silently start receiving records it filters out).
A row regresses when the
candidate is worse than the baseline by more than the threshold fraction.
Exits 1 if any matched row regressed, 0 otherwise. Rows present on only one
side are listed but never fail the comparison (benchmarks come and go across
PRs). Exits 2 without comparing when the two files' contexts differ in
num_cpus or library_build_type: numbers from different hardware or a
differently built benchmark library are not like for like.

When a file was recorded with --benchmark_repetitions, each side compares
the BEST repetition per row (highest throughput / lowest time / lowest
gated counter). Transient interference on shared hardware only ever makes
a repetition slower, never faster, so best-of-N is a far more stable
estimate of what the code can do than the mean of one longer run.
"""

import argparse
import json
import sys

# Counters gated independently of a row's primary metric, all lower-is-better.
GATED_COUNTERS = ("p95_lag_ts", "updates_per_sink", "bytes_per_sink",
                  "syscalls_per_record", "bytes_per_record")


# Fields the comparison reads, and which direction "best" points for each
# when folding repetitions of the same benchmark into one row.
BEST_OF = {"items_per_second": max, "real_time": min}
BEST_OF.update({c: min for c in GATED_COUNTERS})

# Context fields both files must share for their rows to be comparable.
SAME_CONTEXT = ("num_cpus", "library_build_type")


def load_rows(doc):
    """Load one row per benchmark name, folding repetitions into best-of.

    Aggregate rows (mean/median/stddev) are skipped so files recorded with
    repetitions line up against single-run files; the individual repetition
    rows are merged keeping the best value of each compared metric.
    """
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        prev = rows.get(name)
        if prev is None:
            rows[name] = dict(b)
            continue
        for key, best in BEST_OF.items():
            if key in b and key in prev:
                prev[key] = best(prev[key], b[key])
    return rows


def pick_metric(base, cand, forced):
    if forced != "auto":
        if forced in base and forced in cand:
            return forced
        return None
    if "items_per_second" in base and "items_per_second" in cand:
        return "items_per_second"
    if "real_time" in base and "real_time" in cand:
        return "real_time"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional regression (default 0.10 = 10%%)")
    ap.add_argument("--metric", default="auto",
                    choices=["auto", "real_time", "items_per_second"])
    args = ap.parse_args()

    with open(args.baseline) as f:
        base_doc = json.load(f)
    with open(args.candidate) as f:
        cand_doc = json.load(f)
    base_ctx = base_doc.get("context", {})
    cand_ctx = cand_doc.get("context", {})
    mismatched = [k for k in SAME_CONTEXT if base_ctx.get(k) != cand_ctx.get(k)]
    if mismatched:
        print("error: the two files were recorded in different contexts; "
              "re-record the baseline on this hardware and build:",
              file=sys.stderr)
        for k in mismatched:
            print(f"  {k}: baseline {base_ctx.get(k)!r}, "
                  f"candidate {cand_ctx.get(k)!r}", file=sys.stderr)
        return 2

    base = load_rows(base_doc)
    cand = load_rows(cand_doc)
    common = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    if not common:
        print("error: no benchmark names in common", file=sys.stderr)
        return 2

    regressions = []
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'metric':<16} {'baseline':>12} "
          f"{'candidate':>12} {'change':>8}")
    def compare_one(name, metric, b, c, higher_is_better):
        if b == 0:
            print(f"{name:<{width}}  {metric:<16} (baseline is zero)")
            return
        change = (c - b) / b
        worse = -change if higher_is_better else change
        mark = ""
        if worse > args.threshold:
            mark = "  << REGRESSION"
            regressions.append(f"{name} [{metric}]")
        print(f"{name:<{width}}  {metric:<16} {b:>12.4g} {c:>12.4g} "
              f"{change:>+7.1%}{mark}")

    for name in common:
        metric = pick_metric(base[name], cand[name], args.metric)
        if metric is None:
            print(f"{name:<{width}}  (no comparable metric)")
        else:
            compare_one(name, metric, base[name][metric], cand[name][metric],
                        higher_is_better=metric == "items_per_second")
        # Gated counters ride independently of the primary metric: a catch-up
        # row may hold throughput while its tail freshness lag blows up, and
        # a partitioned row may hold throughput while its per-sink volume
        # creeps back toward full replication.
        for counter in GATED_COUNTERS:
            if counter in base[name] and counter in cand[name]:
                compare_one(name, counter, base[name][counter],
                            cand[name][counter], higher_is_better=False)

    for name in only_base:
        print(f"{name:<{width}}  (removed in candidate)")
    for name in only_cand:
        print(f"{name:<{width}}  (new in candidate)")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name in regressions:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"\nOK: no regressions beyond {args.threshold:.0%} "
          f"across {len(common)} matched benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
