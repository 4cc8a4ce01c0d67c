#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload for S seconds of host
time. Build output goes to stderr; the benchmark's report goes to stdout,
whose last line is one JSON object with the keys correct, attempted, failed
and metrics. On the pinned seed (pinned_digests.json) every pass's digest of
simulated statistics must also equal the pinned one. The exit status is
non-zero when the build fails or any correctness check fails.

Extra options: --size tiny (a few hundred invocations, for the self-test) and
--expect-digest HEX (check against HEX instead of the pinned digest).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("retry_scale", "canary_commit", "canary_failover")
RUN_SLACK_S = 140


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench").resolve()


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "canary_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "canary_perfbench"


def pinned_digest(workload, seed):
    pins = json.loads((HERE / "pinned_digests.json").read_text())
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expect-digest")
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    expect = args.expect_digest
    if expect is None and args.size == "full":
        expect = pinned_digest(args.workload, args.seed)
    if expect is not None:
        cmd += ["--expect-digest", expect]
    sys.stdout.flush()
    # Bounds a hung run while leaving room for the minimum pass count when
    # a pass is slow.
    timeout_s = args.seconds + RUN_SLACK_S
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout_s:g} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
