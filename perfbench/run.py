#!/usr/bin/env python3
"""The repository benchmark: scenario-replay throughput of the EDP simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload web-storm --seed 7 --seconds 10 --trace 0

It builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs the named workload in its own process for --seconds, and prints a
report followed, on the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (and writes the run's spans as a Chrome trace file under
.bench_build/perfbench/traces/). Each metric value is the median of the
run's samples; the report above the JSON line gives quartiles and counts.
Every run also replays the workload once at seed 42 and its default size
and checks that digest against the pinned one. --flows resizes the run's
own storm and --pin overrides the pinned digest (both used by
perfbench/smoke_test.py). The exit status is 0 only for a correct run.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
CXX_FLAGS_RELEASE = "-O2 -DNDEBUG"  # the repository's release preset
WORKLOADS = ("web-storm", "web-storm-2w", "microburst-64b")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at src/ in " + ROOT)
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                 "-DCMAKE_CXX_FLAGS_RELEASE=" + CXX_FLAGS_RELEASE]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def host_stamp():
    """CPU, thread count, build and source identity for the report."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            fields = dict(re.findall(r'^set\((CMAKE_CXX_COMPILER_\w+) "([^"]*)"\)',
                                     f.read(), re.M))
        compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                              fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    git_sha = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build": "%s CMAKE_CXX_FLAGS_RELEASE='%s' %s" % (
            BUILD_TYPE, CXX_FLAGS_RELEASE, compiler),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest()[:16],
    }


def summarize(values):
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def fmt(v):
    return "%.6g" % v


def report(args, host, result, metrics, wanted):
    print("perfbench %s seed=%d trace=%d app=%s flows=%d shards=%d" % (
        args.workload, args.seed, args.trace, result["app"], result["flows"],
        result["shards"]))
    for key in ("cpu", "nproc", "build", "git_sha", "src_sha256"):
        print("  host.%-10s %s" % (key, host[key]))
    print("  digest %s" % result["digest"])
    print("  pin check seed=%d flows=%d digest %s (pinned: %s)" % (
        result["pinned_seed"], result["pinned_flows"],
        result["pinned_replay_digest"], result["pinned"]))
    print("  operations attempted=%d failed=%d" % (result["attempted"],
                                                   result["failed"]))
    for name, tally in result["checks"].items():
        print("  check %-28s passed=%d failed=%d" % (
            name, tally["passed"], tally["failed"]))
    for line in result["failures"]:
        print("  FAIL " + line)
    print("  %-34s %12s %12s %12s %4s  %s" % ("metric", "median", "q1", "q3",
                                             "n", "unit"))
    for name in wanted:
        med, q1, q3, n = metrics[name]
        print("  %-34s %12s %12s %12s %4d  %s" % (
            name, fmt(med), fmt(q1), fmt(q3), n, wanted[name]))
    samples = result["samples"]
    if args.trace:
        base = samples["untraced.pkts_per_s"]["values"]
        print("  ratio trace.overhead = traced pkts/s / untraced pkts/s "
              "(base: untraced median %s 1/s, n=%d)" % (
                  fmt(statistics.median(base)), len(base)))
        if "one_shard.run_s" in samples:
            print("  ratio runtime.speedup = 1-shard run_s / %d-shard run_s "
                  "(base: 1-shard median %s s); runtime.amdahl_bound = %s" % (
                      result["shards"],
                      fmt(statistics.median(samples["one_shard.run_s"]["values"])),
                      fmt(metrics["runtime.amdahl_bound"][0])))
        print("  cost split, ns per simulated packet (medians):")
        layers = sorted(k for k in samples
                        if k.startswith("cost.") and k.endswith("_ns_per_pkt")
                        and k not in ("cost.sum_ns_per_pkt",
                                      "cost.measured_ns_per_pkt"))
        for k in layers:
            print("    %-10s %12.4g" % (k[5:-11], statistics.median(
                samples[k]["values"])))
        for k, label in (("cost.sum_ns_per_pkt", "sum"),
                         ("cost.measured_ns_per_pkt", "measured")):
            print("    %-10s %12.4g" % (label, statistics.median(
                samples[k]["values"])))
        print("    %-10s %12.4g  (trace.unattributed_share; base: measured "
              "untraced run-phase CPU ns/pkt)" % (
                  "remainder", metrics["trace.unattributed_share"][0]))
    else:
        print("  ratio cpu_us_per_pkt = run-phase process CPU us / packets "
              "sent; pkts_per_s = packets sent / run-phase wall s")
        print("  note: on a host whose speed drifts, a difference smaller than "
              "a metric's bound is unresolved, not 'unchanged'")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--flows", type=int, default=0)
    parser.add_argument("--pin", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in group}

    try:
        exe = build()
    except (OSError, RuntimeError) as e:
        log("perfbench: " + str(e))
        return 2
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.flows:
        cmd += ["--flows", str(args.flows)]
    if args.pin:
        cmd += ["--pin", args.pin]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: benchmark process exited with %d" % proc.returncode)
        return 2
    result = json.loads(lines[-1])

    missing = sorted(set(wanted) - set(result["samples"]))
    if missing:
        log("perfbench: metrics not measured: " + ", ".join(missing))
        return 2
    mismatched = sorted(name for name, unit in wanted.items()
                        if result["samples"][name]["unit"] != unit)
    if mismatched:
        log("perfbench: units differ from BENCHMARK.json: " +
            ", ".join(mismatched))
        return 2
    metrics = {name: summarize(result["samples"][name]["values"])
               for name in wanted}
    report(args, host_stamp(), result, metrics, wanted)
    correct = result["attempted"] > 0 and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
