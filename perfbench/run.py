#!/usr/bin/env python3
"""Builds the program and the benchmark from source, runs one workload,
and prints the benchmark's result as the last line of standard output.

    python3 perfbench/run.py --workload nfs_10k --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
into $CARGO_TARGET_DIR (default .bench_build) under the checkout; later
runs rebuild incrementally. Build logs go to standard error. The printed
metric set is checked against BENCHMARK.json: a missing, extra or
mis-unit metric fails the run without printing a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return build if build.is_absolute() else ROOT / build


def run_build_step(command, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("build ran out of time")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("build ran out of time")
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, command))}")


def build():
    """Builds the program's libraries with the repo's own CMake project,
    then the benchmark binary against them. Returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources (CMakeLists.txt, src/) under {ROOT}")
    out = build_root()
    program = out / "eafe"
    bench = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (program / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", ROOT, "-B", program,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DEAFE_BUILD_TESTS=OFF",
                        "-DEAFE_BUILD_BENCHMARKS=OFF",
                        "-DEAFE_BUILD_EXAMPLES=OFF"], deadline)
    run_build_step(["cmake", "--build", program, "-j", jobs, "--target",
                    "eafe_afe", "eafe_serve_server"], deadline)
    if not (bench / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", ROOT / "perfbench", "-B", bench,
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DEAFE_SOURCE_DIR={ROOT}",
                        f"-DEAFE_LIB_DIR={program / 'src'}"], deadline)
    run_build_step(["cmake", "--build", bench, "-j", jobs], deadline)
    return bench / "perfbench"


def load_benchmark_json():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def check_result(result, expected):
    """Returns what in one result object disagrees with BENCHMARK.json."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not exactly correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(
            f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')} is not {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value} is not a finite number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help=argparse.SUPPRESS)  # Self-test hook.
    args = parser.parse_args()

    benchmark = load_benchmark_json()
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; known: {workloads}")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark[kind]}

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(build_root() / "perfbench" / "out")]
    if args.corrupt_every:
        command += ["--corrupt-every", str(args.corrupt_every)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"benchmark exited {done.returncode} without a result", 3)
    problems = check_result(result, expected)
    # A run that found wrong outputs may have stopped before measuring
    # everything; its verdict is printed as is.
    if problems and not (isinstance(result, dict)
                         and result.get("correct") is False):
        fail("result does not match BENCHMARK.json: " + "; ".join(problems),
             3)
    print("\n".join(lines))
    sys.exit(done.returncode if done.returncode != 0 else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
