#!/usr/bin/env python3
"""Build and run the deployment benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload tcp-closed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The first run configures and builds the library and the `perfbench`
program from source into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`); later runs rebuild incrementally.  Build output
goes to stderr; the program's last stdout line is the run's JSON result.
With `--workload all` every workload runs in turn and prints its own
result line.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["tcp-closed", "open-mixed", "engine-batch"]
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
        if args.workload == "all":
            print(f"== {workload}", flush=True)
        try:
            done = subprocess.run(cmd, timeout=120 + 1.5 * args.seconds)
        except subprocess.TimeoutExpired:
            fail(f"{workload} did not finish in time")
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
