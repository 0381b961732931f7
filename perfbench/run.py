#!/usr/bin/env python3
"""Builds the spnc benchmark runner from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The runner and the repository's libraries are built with CMake into
.bench_build/perfbench under the current directory; later runs rebuild only
what changed. The runner's standard output is relayed, and its last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; any other set is an error. The exit code is 0 only for a
complete run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not any(os.path.exists(os.path.join(build_dir, name))
               for name in ("build.ninja", "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    # Compilers (the build's and the cpp backend's) write their temporary
    # files here rather than outside the checkout.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "spnc-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", build_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the runner and waits for it.
        print(f"runner exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"runner exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, TypeError) as err:
        sys.stderr.write(run.stdout)
        print(f"malformed result line: {err}", file=sys.stderr)
        return 1
    if sorted(names) != sorted(expected_metrics(args.trace)):
        sys.stderr.write(run.stdout)
        print("metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
