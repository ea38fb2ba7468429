#!/usr/bin/env python3
"""Builds and runs the HFuse search benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dl_pairs --seed 42 --seconds 15 --trace 0

It configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the benchmark binary. The binary's last line of standard
output is the JSON result; build output goes to standard error. The exit
code is non-zero when the build fails or any check fails.

Best configurations are compared with perfbench/expected/<workload>-seed<N>.txt
when that file exists; otherwise the first run of a seed in a build tree
records them and later runs compare against that record.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("dl_pairs", "crypto_mix", "warm_store"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect", help="expected Best file to check against")
    ap.add_argument("--requests", type=int, default=0,
                    help="use only the first N distinct requests (self-test)")
    a = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build = os.path.join(build_root, "perfbench")
    work = os.path.join(build_root, "perfbench-work")
    for cmd in (["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    args = [os.path.join(build, "perfbench"), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work-dir", work]
    expect = a.expect
    if a.requests:
        args += ["--requests", str(a.requests)]
    elif not expect:
        committed = os.path.join(HERE, "expected",
                                 f"{a.workload}-seed{a.seed}.txt")
        record = os.path.join(work, f"best-{a.workload}-seed{a.seed}.txt")
        if os.path.exists(committed):
            expect = committed
        elif os.path.exists(record):
            expect = record
        else:
            args += ["--record", record]
    if expect:
        args += ["--expect", expect]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
