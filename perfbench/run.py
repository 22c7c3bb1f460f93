#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge_single_user --seed 11 \
        --seconds 15 --trace 0

The first run configures and builds perfbench (the fasttts library from
src/ plus perfbench/perfbench.cc, optimised) into a directory of this
checkout's own, perfbench-<key>, under CARGO_TARGET_DIR, or under
.bench_build when that is unset; later runs rebuild only what changed.
The benchmark's own output is passed through; its last line is the JSON
result. With --trace 1 the recorded spans are written
to <build dir>/traces/<workload>-seed<seed>.csv.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir_for(target_dir):
    """Build directory of this checkout under the target directory.

    The directory is keyed by the checkout's path, so two checkouts that
    share one absolute CARGO_TARGET_DIR never build each other's sources.
    """
    key = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(target_dir, "perfbench-" + key)


def build(build_dir):
    """Configure and build the perfbench binary; return its path.

    Configuring runs every time: it is cheap once done, and CMake
    refuses a cache made from another source directory.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no fasttts sources under src/ in this checkout")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = build_dir_for(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%s.csv" % (args.workload, seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
