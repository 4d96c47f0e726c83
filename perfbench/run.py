#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload exp1_hw --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the library from
src/ and the benchmark binary into .bench_build/perfbench. The last line
of the output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The lines before it summarise the run for a reader.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Every run must end within 180 s, build check included; a first run that
# compiles may take longer, so the binary always gets at least 120 s.
RUN_TIMEOUT_S = 170
MIN_BINARY_TIMEOUT_S = 120
# An untraced run is split over this many processes, one after another.
# Host speed differs between processes (a fixed set-up takes 22 to 36 us
# depending on the process), so pooling several steadies the medians.
# Each process simulates sub-seeds of its own (see scenarios.cpp), so the
# simulated metrics average over four times as many simulations.
PROCESSES = 4

sys.path.insert(0, HERE)
import stats  # noqa: E402


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a repository checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def summarise(args, raw, result):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"checks: {attempted} attempted, {failed} failed  "
          f"failed_frac {failed / attempted:.6g}")
    for f in raw["failures"]:
        print(f"  FAILED {f}")
    for name, value in sorted(raw["outputs"].items()):
        print(f"  model {name} = {value:.6g}")
    for name, xs in sorted(raw["samples"].items()):
        print(f"  samples {name}: n={len(xs)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    start = time.monotonic()
    binary = build()
    deadline = start + max(RUN_TIMEOUT_S - (time.monotonic() - start),
                           MIN_BINARY_TIMEOUT_S)
    processes = 1 if args.trace else PROCESSES
    raws = []
    for part in range(processes):
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / processes),
             "--trace", str(args.trace),
             "--part", str(part), "--parts", str(processes)],
            stdout=subprocess.PIPE, timeout=deadline - time.monotonic(),
            check=False, text=True)
        if proc.returncode != 0:
            fail(f"benchmark binary exited with {proc.returncode}")
        raws.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    raw = stats.merge_records(raws)
    result = stats.assemble(raw, spec, args.trace == 1)
    summarise(args, raw, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
