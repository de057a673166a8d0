#!/usr/bin/env python3
"""Builds RDX from this source tree and runs one end-to-end benchmark run.

    python3 rdxbench/run.py --workload reverse_exchange --seed 1 \
        --seconds 30 --trace 0
    python3 rdxbench/run.py --smoke

The build (CMake, RelWithDebInfo) goes to .bench_build/rdxbench at the
root of the tree; build output goes to stderr. The last line of stdout is
the JSON result of rdxbench (see rdxbench/README.md). Exits non-zero when
the build fails, the source tree is missing, or any op was incorrect.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rdxbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("rdxbench: no RDX source tree next to rdxbench/ "
                 "(src/ missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit():
    # The tree may not be a git checkout; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, all checks on")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"rdxbench: build failed: {e}")

    cmd = [os.path.join(BUILD, "rdxbench"),
           "--root", ROOT,
           "--serve-bin", os.path.join(BUILD, "rdx_serve"),
           "--prof-bin", os.path.join(BUILD, "rdx_prof"),
           "--work-dir", WORK]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", args.seed,
                "--seconds", args.seconds, "--trace", args.trace,
                "--commit", commit()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
