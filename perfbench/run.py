#!/usr/bin/env python3
"""Build and run the funnelpq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --determinism --workload <name> --seed <n>

Run from the repository root. The first call configures and builds
perfbench/ (with the library sources in src/) into .bench_build/perfbench;
later calls only rebuild what changed. A traced run writes its spans to
.bench_build/trace/<workload>-seed<n>.csv.

The last line of standard output is the result object; run.py checks that
its metrics are exactly the ones BENCHMARK.json declares for the mode, with
the declared units, and exits non-zero without printing a result otherwise.

--determinism runs a workload untraced twice and traced once with the same
seed and requires the exact simulated cycle totals of every cell to agree.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "3"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace):
    # The benchmark runs from the trace directory (where a traced run writes
    # its spans) under a fixed argv and an empty environment. The simulated
    # cycles of the node-allocating queues depend on the host address
    # layout, which the size of argv and the environment shifts; fixing
    # both makes traced and untraced runs, and runs from any checkout
    # location, simulate the same thing.
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = ["../perfbench/perfbench", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        p = subprocess.run(cmd, cwd=TRACE_DIR, env={}, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S, 3)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        fail("benchmark exited with status %d" % p.returncode, p.returncode)
    return lines


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(lines, trace):
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line", 4)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, wrong unit %s"
             % (missing, extra, wrong), 4)
    return result


def determinism(workload, seed, seconds):
    """Exact simulated cycle totals of every sim cell: two untraced runs and
    one traced run of the same seed must agree."""
    runs = []
    for trace in (False, False, True):
        lines = run_bench(workload, seed, seconds, trace)
        runs.append([ln for ln in lines if ln.startswith("sim-cycles ")])
    for name, r in zip(("untraced", "untraced again", "traced"), runs):
        print("%s:\n  %s" % (name, "\n  ".join(r)))
    return runs[0] == runs[1] == runs[2] and len(runs[0]) > 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--determinism", action="store_true")
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "registry.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    if not a.self_test and (a.workload is None or a.seed is None):
        ap.error("--workload and --seed are required")
    build()
    if a.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if a.determinism:
        same = determinism(a.workload, a.seed, a.seconds)
        print("simulated cycles identical across the three runs: %s" % same)
        sys.exit(0 if same else 1)
    lines = run_bench(a.workload, a.seed, a.seconds, a.trace == 1)
    validate(lines, a.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
