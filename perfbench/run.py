#!/usr/bin/env python3
"""Build and run the humdex end-to-end benchmark.

    python3 perfbench/run.py --workload knn_small|knn_large|range_rw \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into .bench_build/ (rebuilt incrementally), then
perfbench's humbench binary runs one workload. Its
last line of stdout is the result JSON; build output goes to stderr. Data
files and span logs stay under .bench_build/. The exit code is non-zero when
the build fails, any operation fails, or any answer differs from the
unsharded oracle.
"""

import argparse
import os
import signal
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def selftest():
    binary = build("perfbench_selftest")
    rc = subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
    suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # build or the benchmark it is waiting on instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        binary = build("humbench")
        return subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data", os.path.join(BUILD, "data"),
             "--trace_dir", os.path.join(BUILD, "traces")],
            timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
