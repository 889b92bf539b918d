#!/usr/bin/env python3
"""Builds the PAFS serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload churn_forest|mixed_forest|warm_linear \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/ (both relative to the repository root); the first call
configures and compiles the library and the harness, later calls only
relink what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result. Traced runs (--trace 1) also write
their spans to <build>/traces/<workload>-seed<N>.json.

Exits nonzero without printing a result when the sources are missing, the
build fails, the percentile self-test fails, or the harness fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn_forest", "mixed_forest", "warm_linear")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds; every step's output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run([os.path.join(out, "percentile_test")], check=True,
                   stdout=sys.stderr, timeout=60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("missing src/CMakeLists.txt: run from a full PAFS checkout")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)

    cmd = [os.path.join(out, "pafs_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-dir", traces]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("harness exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
