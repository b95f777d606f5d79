#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload ntt_table1 --seed 1 --seconds 20 --trace 0

Workloads: ntt_table1, he_mul, service_mix.  --trace 1 prints the
per-layer metrics and writes a Chrome trace to .bench_build/traces/.
Build output goes to stderr; stdout is the benchmark's own, ending with
one JSON result line.  Exits non-zero when the build fails, an output is
wrong, or the run is invalid.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ntt_table1", "he_mul", "service_mix")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")]
    sys.stdout.flush()
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
