#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The simulator's libraries and the
``perfbench`` program are compiled into ``.bench_build/`` (configured on the
first run, then brought up to date on every run); the program's output is
passed through unchanged, so the last line of standard output is the result
object. A traced run (``--trace 1``) writes its span trace to
``.bench_build/traces/<workload>-seed<N>.json``.

Exits non-zero without a result when the simulator sources are missing or
the build fails. Only the Python standard library is used.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build() -> Path:
    """Configures (once) and builds the program; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: simulator sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    # Build chatter goes to stderr: stdout carries only the program's report.
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run([cmake, "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "bin" / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
