#!/usr/bin/env python3
"""Cluster benchmark entry point.

Builds lazysi_server and the load generator (clusterbench_gen) from the
checkout this file sits in, runs one workload against a loopback cluster of
lazysi_server processes, prints every metric with its unit and sample
count, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). Exits non-zero when any output check fails.

  python3 clusterbench/run.py --workload shopping --seed 1 --seconds 10 --trace 0

Extra primary flags (sensitivity checks): --primary-flag=--batching=0, ...
The full result, with its context, is written to --result-file (default:
.bench_build/results/<workload>-seed<n>-trace<t>.json).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SERVER = os.path.join(BUILD, "lazysi", "src", "server", "lazysi_server")
GENERATOR = os.path.join(BUILD, "clusterbench_gen")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("clusterbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources that decide what is measured, for results
    from a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "clusterbench/CMakeLists.txt",
                "clusterbench/generator.cc", "clusterbench/run.py"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_times():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests: a run on an
    oversubscribed host is slower for reasons outside the code."""
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / sum(d) if len(d) > 7 and sum(d) else 0.0


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the two targets; a no-op when current."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                  "lazysi_server", "clusterbench_gen"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path),
                     1)
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing a %r build; numbers come from Release only" %
             build_type, 1)


def stop_group(pgid):
    """Kills whatever is left of the generator's process group (its server
    children included) and waits until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_generator(args, workdir, spans, budget_s):
    cmd = [GENERATOR, "--server=" + SERVER, "--workdir=" + workdir,
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if spans:
        cmd.append("--spans=" + spans)
    if args.rate is not None:
        cmd.append("--rate=%s" % args.rate)
    cmd += ["--primary-flag=" + f for f in args.primary_flag]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("generator exceeded %.0f s" % budget_s, 1)
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if not lines:
        fail("generator exited %d without a result" % proc.returncode, 1)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("generator printed no JSON result", 1)


def print_table(result, names):
    print("%-34s %14s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name in names:
        m = result["metrics"][name]
        print("%-34s %14.4f %-6s n=%d" % (name, m["value"], m["unit"],
                                          m["n"]))
    for check in result["checks"]:
        print("check %-26s %s  %s" % (check["name"],
                                      "ok" if check["ok"] else "FAILED",
                                      check["detail"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--primary-flag", action="append", default=[])
    ap.add_argument("--rate", type=float,
                    help="durable-writes arrivals/s; 0 = closed loop")
    ap.add_argument("--result-file")
    args = ap.parse_args()
    started = time.time()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json next to %s" % HERE)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository sources (%s) not found under %s" % (need, ROOT))

    build()
    workdir = os.path.join(BUILD, "run", "%s-%d" % (args.workload,
                                                    os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    spans = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        spans = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" %
                             (args.workload, args.seed))
    # Start from clean page-cache writeback: dirty data left by an earlier
    # run (a traced run's spans, a durable run's files) would otherwise
    # stall this run's fsyncs.
    os.sync()
    budget = RUN_TIMEOUT_S - (time.time() - started)
    cpu_before = cpu_times()
    try:
        result = run_generator(args, workdir, spans, max(budget, 30))
    finally:
        subprocess.run(["rm", "-rf", workdir])

    result["context"] = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "build_type": result.pop("build_type"),
        "compiler": result.pop("compiler"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "primary_flags": args.primary_flag,
        "durable_rate": result.pop("durable_rate"),
        "seconds": args.seconds,
        "trace": args.trace,
        "seed": args.seed,
        "workload": args.workload,
        "steal_pct": round(steal_pct(cpu_before, cpu_times()), 2),
    }
    if result["context"]["build_type"] != "Release":
        fail("refusing a %r generator build" %
             result["context"]["build_type"], 1)
    key = "end_to_end" if args.trace == 0 else "per_layer"
    selected = [m["name"] for m in spec[key]]
    missing = [n for n in selected if n not in result["metrics"]]
    if missing:
        fail("generator did not report %s" % ", ".join(missing), 1)

    print("workload %s, seed %d, %s s, trace %d, context %s" %
          (args.workload, args.seed, args.seconds, args.trace,
           json.dumps(result["context"], sort_keys=True)))
    shown = selected + sorted(n for n, m in result["metrics"].items()
                              if n not in selected and m["n"] > 0)
    print_table(result, shown)

    result_file = args.result_file or os.path.join(
        BUILD, "results", "%s-seed%d-trace%d.json" %
        (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(result_file)), exist_ok=True)
    with open(result_file, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in selected},
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
