#!/usr/bin/env python3
"""Summarises and compares cluster-benchmark result files (run.py
--result-file, default .bench_build/results/*.json).

  # spread of one set of runs: median, quartiles, (q3-q1)/median vs bound
  python3 clusterbench/compare.py .bench_build/results/*.json

  # parent vs change, same benchmark code and settings
  python3 clusterbench/compare.py --base base/*.json --head head/*.json

Results are grouped by workload and trace mode. Two results whose context
differs in hardware, build or server flags are refused (exit 2): numbers
from different machines or builds are not comparable. --force prints them
anyway under a warning banner.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Context that must match for two results to be compared. The seed, commit
# and source digest are expected to differ.
SAME = ("nproc", "cpu_model", "build_type", "compiler", "primary_flags",
        "durable_rate", "seconds")
# Above this share of steal time the host, not the code, sets the pace.
MAX_STEAL_PCT = 10.0


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        r["_path"] = p
        out.append(r)
    return out


def warn_steal(results):
    busy = ["%s (%.1f%%)" % (os.path.basename(r["_path"]),
                             r["context"]["steal_pct"])
            for r in results
            if r["context"].get("steal_pct", 0) > MAX_STEAL_PCT]
    if busy:
        print("WARNING: %d runs lost > %.0f%% of CPU time to other guests: %s"
              % (len(busy), MAX_STEAL_PCT, ", ".join(busy)), file=sys.stderr)


def check_context(results, force):
    warn_steal(results)
    ref = results[0]["context"]
    bad = []
    for r in results[1:]:
        for k in SAME:
            if r["context"].get(k) != ref.get(k):
                bad.append("%s: %s=%r vs %s=%r" % (
                    os.path.basename(r["_path"]), k, r["context"].get(k),
                    os.path.basename(results[0]["_path"]), ref.get(k)))
    if not bad:
        return
    banner = "!" * 72
    print(banner, file=sys.stderr)
    print("CONTEXT MISMATCH: these results are not like for like",
          file=sys.stderr)
    for b in bad[:20]:
        print("  " + b, file=sys.stderr)
    print(banner, file=sys.stderr)
    if not force:
        sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        s = json.load(f)
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def groups(results):
    g = {}
    for r in results:
        c = r["context"]
        g.setdefault((c["workload"], c["trace"]), []).append(r)
    return g


def summarise(results, metrics):
    for (workload, trace), rs in sorted(groups(results).items()):
        wrong = [r["_path"] for r in rs if not r["correct"]]
        print("\n%s trace=%d: %d runs%s" % (
            workload, trace, len(rs),
            ", INCORRECT: " + " ".join(wrong) if wrong else ""))
        print("  %-32s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs
                    if name in r["metrics"]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
            print("  %-32s %12.4f %12.4f %12.4f %7.1f%% %6s%s" % (
                name, q1, med, q3, 100 * spread,
                "" if bound is None else "%.2f" % bound, flag))


def compare(base, head, metrics):
    gb, gh = groups(base), groups(head)
    worse = 0
    for key in sorted(set(gb) & set(gh)):
        print("\n%s trace=%d: base %d runs, head %d runs" % (
            key[0], key[1], len(gb[key]), len(gh[key])))
        print("  %-32s %12s %12s %8s %8s  %s" % (
            "metric", "base med", "head med", "change", "spread", "verdict"))
        for name in sorted(gb[key][0]["metrics"]):
            b = [r["metrics"][name]["value"] for r in gb[key]]
            h = [r["metrics"][name]["value"] for r in gh[key]
                 if name in r["metrics"]]
            if not h:
                continue
            bq1, bmed, bq3 = quartiles(b)
            _, hmed, _ = quartiles(h)
            change = (hmed - bmed) / bmed if bmed else 0.0
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            m = metrics.get(name, {})
            verdict = ""
            if "bound" in m:
                sign = 1 if m["better"] == "lower" else -1
                if sign * change > m["bound"]:
                    verdict = "WORSE than bound %.2f" % m["bound"]
                    worse += 1
                elif spread > m["bound"]:
                    verdict = "unresolved (spread > bound)"
                else:
                    verdict = "within bound"
            print("  %-32s %12.4f %12.4f %+7.1f%% %7.1f%%  %s" % (
                name, bmed, hmed, 100 * change, 100 * spread, verdict))
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="*")
    ap.add_argument("--base", nargs="+")
    ap.add_argument("--head", nargs="+")
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()
    metrics = spec()
    if args.base or args.head:
        if not (args.base and args.head):
            ap.error("--base and --head go together")
        base, head = load(args.base), load(args.head)
        check_context(base + head, args.force)
        sys.exit(1 if compare(base, head, metrics) else 0)
    if not args.results:
        ap.error("no result files")
    results = load(args.results)
    check_context(results, args.force)
    summarise(results, metrics)


if __name__ == "__main__":
    main()
