#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig06_oneshot --seed 1 \
        --seconds 12 --trace 0

Builds perfbench and confluence_sweep into .bench_build/ (configure
once, then an incremental build, so only the first run pays for
compiling), then runs the perfbench binary with a fresh work directory
under .bench_build/runs/. The binary's stdout is passed through: its
last line is the JSON result. Build output goes to stderr. Exits with
the binary's status, or 1 when the build fails (for instance in a
directory that holds only the benchmark, without the simulator's
sources).
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent
BUILD = REPO / ".bench_build"
# Checked before the name becomes part of a path that is deleted.
WORKLOADS = ("fig06_oneshot", "search_halving", "dispatch_shards")


def build():
    """Configure (first time only) and build the two binaries."""
    out = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], **out)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "perfbench", "confluence_sweep"], **out)
    return BUILD / "perfbench"


def code_version():
    """The commit when the checkout is a git work tree, else a digest
    of the sources the binaries are built from."""
    if (REPO / ".git").exists():
        sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return sha.stdout.strip()
    digest = hashlib.sha256()
    roots = [REPO / "CMakeLists.txt", REPO / "src", REPO / "tools", BENCH]
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--code-version", code_version()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
