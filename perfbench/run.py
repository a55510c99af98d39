#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign|iss_estimate|preempt \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the library and the nfpbench
driver from source (Release, into $CARGO_TARGET_DIR or .bench_build), then
runs the driver. With --trace 0 the set-up is timed three times (twice in
separate set-up-only processes, once in the measuring run) and setup_s is
their median. The last line of stdout is the result JSON object; the exit
status is non-zero when the build, the run or any correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 600


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures the repository's own CMake build with the driver hooked in
    and builds only the driver and the libraries it links."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = [
        "cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
        "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(BENCH_DIR, "nfpbench.cmake"),
    ]
    compile_ = ["cmake", "--build", build_dir, "--target", "nfpbench",
                "-j", jobs]
    for cmd in (configure, compile_):
        # Build output goes to stderr: stdout carries only the benchmark's.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "nfpbench")


def run(cmd):
    """Runs the driver to completion; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "iss_estimate", "preempt"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"{ROOT} is not an nfpkit source tree (no CMakeLists.txt/src)")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    common = [exe, "--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS - 1):
            code, lines = run(common + ["--setup-only"])
            if code != 0 or not lines:
                log("set-up-only run failed")
                return 1
            setups.append(json.loads(lines[-1])["setup_s"])

    cmd = common + ["--seconds", str(args.seconds), "--trace",
                    str(args.trace)]
    if args.trace == 1:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    code, lines = run(cmd)
    if not lines:
        log(f"driver exited with {code} and printed nothing")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"driver exited with {code} without a result line")
        return 1
    for line in lines[:-1]:
        print(line)

    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
