#!/usr/bin/env python3
"""Shows that the benchmark's per-layer metrics can fail: each check turns
one existing lazysi_server flag and asserts that the metric it should move
moves in the predicted direction, and that a workload the flag bypasses
stays put. Exits non-zero if any prediction fails.

The fsync-mode check runs durable-writes closed loop (run.py --rate 0), in
both configurations: per-commit fsyncs can only cost more than group commit
when commits overlap, and at the open loop's fixed rate they seldom do.

  python3 clusterbench/sensitivity.py [--runs 3] [--seconds 5] [--seed 7]

Every configuration runs --runs times (seeds seed, seed+1, ...; the order
of configurations alternates between rounds) as a traced run through
run.py, and checks compare medians. A directional prediction holds only
when the medians differ by more than the default configuration's
interquartile range; a smaller move is reported as unresolved. Results land
in .bench_build/sensitivity/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "sensitivity")

ALWAYS = "--fsync-mode=always"
GROUP_WAIT = "--group-flush-us=2000"
FLUSH5 = "--batch-flush-ms=5"
NOBATCH = "--batching=0"
CLOSED = "durable-writes closed"  # durable-writes at --rate 0
CONFIGS = [("durable-writes", None), ("durable-writes", GROUP_WAIT),
           ("durable-writes", FLUSH5), (CLOSED, None), (CLOSED, ALWAYS),
           ("shopping", None), ("shopping", ALWAYS),
           ("rejoin", None), ("rejoin", NOBATCH)]


def run(config, flag, seed, seconds):
    workload = config.split()[0]
    name = "%s-%s-seed%d" % (config.replace(" ", "-"),
                             (flag or "defaults").lstrip("-"), seed)
    path = os.path.join(OUT, name + ".json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1", "--result-file", path]
    if config == CLOSED:
        cmd += ["--rate", "0"]
    if flag:
        cmd.append("--primary-flag=" + flag)
    print("running %s %s seed %d" % (config, flag or "(defaults)", seed),
          flush=True)
    if os.path.exists(path):
        os.remove(path)
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if not os.path.exists(path):
        sys.exit("run failed (exit %d): %s" % (rc, " ".join(cmd)))
    with open(path) as f:
        return {k: v["value"] for k, v in json.load(f)["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    results = {c: [] for c in CONFIGS}
    for r in range(args.runs):
        order = CONFIGS if r % 2 == 0 else CONFIGS[::-1]
        for workload, flag in order:
            results[(workload, flag)].append(
                run(workload, flag, args.seed + r, args.seconds))

    rows = []

    def check(what, workload, flag, metric, predicate, expect,
              directional=True):
        base = [m[metric] for m in results[(workload, None)]]
        var = [m[metric] for m in results[(workload, flag)]]
        b, v = statistics.median(base), statistics.median(var)
        if not predicate(b, v):
            verdict = "FAILED"
        elif directional and abs(v - b) <= iqr(base):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((what, workload, flag, metric, b, v, expect, verdict))

    check("fsync per commit raises commit p99", CLOSED, ALWAYS,
          "txn.pri_commit_us.p99", lambda b, v: v > b, "higher")
    check("a 2 ms group-flush wait raises commit p50", "durable-writes",
          GROUP_WAIT, "txn.pri_commit_us.p50", lambda b, v: v - b >= 1000,
          "+>=1000 us")
    check("in-memory primary ignores fsync mode", "shopping", ALWAYS,
          "txn.pri_commit_us.p50", lambda b, v: abs(v / b - 1) < 0.25,
          "within 25%", directional=False)
    check("5 ms batch flush delays visibility ~5 ms", "durable-writes",
          FLUSH5, "visible_lag_ms.p50", lambda b, v: 2 <= v - b <= 10,
          "+2..10 ms")
    check("5 ms batch flush coalesces records", "durable-writes", FLUSH5,
          "replication.records_per_frame", lambda b, v: v > b, "higher")
    check("no batching sends one record per frame", "rejoin", NOBATCH,
          "replication.records_per_frame", lambda b, v: abs(v - 1) < 1e-9,
          "= 1", directional=False)
    check("no batching slows catch-up", "rejoin", NOBATCH,
          "catchup_commits_per_s", lambda b, v: v < b, "lower")

    print("\nmedians of %d runs per configuration, %s s each" %
          (args.runs, args.seconds))
    print("%-42s %-22s %-22s %-30s %12s %12s %-11s %s" % (
        "prediction", "workload", "flag", "metric", "default", "flagged",
        "expect", "result"))
    for what, workload, flag, metric, b, v, expect, verdict in rows:
        print("%-42s %-22s %-22s %-30s %12.4f %12.4f %-11s %s" % (
            what, workload, flag, metric, b, v, expect, verdict))
    sys.exit(0 if all(row[-1] == "ok" for row in rows) else 1)


if __name__ == "__main__":
    main()
