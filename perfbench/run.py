#!/usr/bin/env python3
"""Build and run the gpsm benchmark harness for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/*.cc) and the
simulator's libraries (src/) are compiled in Release mode into the
directory named by CARGO_TARGET_DIR (default .bench_build), then the
harness runs with every GPSM_* environment variable removed. Its
stdout is passed through; the last line is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the
harness's: nonzero when any config failed, timed out or computed a
wrong answer, or when the build failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("headline_live", "frag_sweep_replay", "ooc_evict")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir, env):
    """Configure (once) and build the harness; output goes to stderr."""
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    env = dict(env, TMPDIR=os.path.join(build_dir, "tmp"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "gpsm_perfbench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found under "
              + ROOT, file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("GPSM_")}
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir, env)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "gpsm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        print("perfbench: harness printed no result", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
