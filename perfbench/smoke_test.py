#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny storm size.

    python3 perfbench/smoke_test.py

For every workload and both trace modes it checks that run.py exits 0,
reports a correct run, and prints every metric BENCHMARK.json names with
its unit, and that the seed-42 pinned-digest check ran although the run's
seed is another. It then checks that the pinned-digest check bites: a run
given the pinned replay's own digest as the pin passes, and a run given a
wrong pin reports correct=false, counts the failed operation and exits
nonzero.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_FLOWS = "24"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--flows", TINY_FLOWS, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    digest = None
    for w in spec["workloads"]:
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, out, result = run(w["name"], trace)
            label = "%s trace=%d" % (w["name"], trace)
            expect(rc == 0 and result is not None and result["correct"],
                   label + " runs correctly")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   label + " prints exactly the result keys")
            for m in group:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       "%s prints %s [%s]" % (label, m["name"], m["unit"]))
            expect(re.search(r"^  pin check seed=42 ", out, re.M) is not None
                   and re.search(r"^  check digest_pinned +passed=1 failed=0$",
                                 out, re.M) is not None,
                   label + " checks the seed-42 pinned digest")
            if w["name"] == "web-storm" and trace == 0:
                match = re.search(r"^  pin check .* digest ([0-9a-f]{16}) ",
                                  out, re.M)
                digest = match.group(1) if match else None

    expect(digest is not None, "web-storm report shows the pinned replay's digest")
    if digest is not None:
        rc, _, result = run("web-storm", 0, "--pin", digest)
        expect(rc == 0 and result["correct"],
               "the pinned replay's own digest as pin passes")
        wrong = "%016x" % (int(digest, 16) ^ 1)
        rc, _, result = run("web-storm", 0, "--pin", wrong)
        expect(rc != 0 and result is not None and not result["correct"]
               and result["failed"] == 1 and result["attempted"] > 1,
               "a wrong pinned digest fails the run")

    print("smoke test: %s" % ("FAILED (%d)" % len(failures) if failures
                              else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
