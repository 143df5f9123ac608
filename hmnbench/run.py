#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 hmnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds
hmnbench/bench.exe with dune (first run: the whole library), runs it
with the given arguments, and checks that its last stdout line is a
result object carrying exactly the metrics BENCHMARK.json declares for
the chosen --trace mode (end_to_end for 0, per_layer for 1). That line
is then printed as the last line of this script's stdout; build output
and diagnostics go to stderr. Exits non-zero, printing no result, when
the sources are missing, the build fails, the benchmark fails or its
result does not match the declaration.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./" + os.path.basename(HERE) + "/bench.exe"
EXE = os.path.join("_build", "default", os.path.basename(HERE), "bench.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a source tree" % needed)
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    bench = subprocess.run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        stdout=subprocess.PIPE,
        env=env,
        universal_newlines=True,
    )
    lines = bench.stdout.splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    if bench.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % bench.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
