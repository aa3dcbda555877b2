#!/usr/bin/env python3
"""Build the BPROM benchmark from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload audit_closed --seed 1 --seconds 45 --trace 0

The first call configures and builds `perfbench/` (the library as the
repository's CMakeLists.txt defines it, plus the perfbench binary) in
`.bench_build/`, or in $CARGO_TARGET_DIR when set; later calls rebuild only
what changed.  The binary's last line of output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit status is the
binary's: 0 only when every correctness check passed.  A traced run
(--trace 1) also writes its spans to .bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit_closed", "fit")
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build(build_dir):
    """Configure (once) and build the binary; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no BPROM source tree next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    args = parse_args()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 2

    workdir = os.path.join(build_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        # The binary's stdout passes straight through, so its JSON result
        # stays the last line.  On timeout the child is killed and reaped.
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
