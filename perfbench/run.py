#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold-solo|dist-tcp|service-mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library from ../src) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset, then runs one workload. Build output goes to stderr; stdout carries
the benchmark's report and, as its last line, the JSON result. The metric
names in that line are checked against BENCHMARK.json before it is printed.
Trace runs also write a Chrome trace to <build dir>/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found next to {HERE.name}/ (need "
             "CMakeLists.txt and src/ at the repository root)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    """HEAD of the repository this script lives in, when it is a checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-solo", "dist-tcp", "service-mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    bdir = build_dir()
    build(bdir)
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no result line (exit status {proc.returncode})")
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        fail("metric names differ from BENCHMARK.json: " + ", ".join(names))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
