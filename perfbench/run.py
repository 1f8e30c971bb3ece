#!/usr/bin/env python3
"""Build and run the csb pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pgpba-query --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the csb libraries from this
checkout) into .bench_build/, runs one workload and forwards its output. The
last line printed is the JSON result. A traced run also validates its
csb.trace.v1 NDJSON with `csbgen report --check` and counts that check in
the result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build")
WORK_DIR = Path(".bench_work")
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("src", "tools", "perfbench")


def build(root: Path) -> None:
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "perfbench", "csbgen"],
        check=True, stdout=sys.stderr)


def source_rev(root: Path) -> str:
    """Digest of the sources the benchmark builds (the checkout need not be
    a git repository)."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in SOURCE_DIRS:
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        print("perfbench: run from the root of a csb checkout", file=sys.stderr)
        return 1
    build(root)
    WORK_DIR.mkdir(exist_ok=True)
    trace_file = WORK_DIR / f"{args.workload}-seed{args.seed}.ndjson"
    command = [str(BUILD_DIR / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(WORK_DIR), "--source-rev", source_rev(root)]
    if args.trace == "1":
        command += ["--trace-out", str(trace_file)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    if args.trace == "1":
        check = subprocess.run(
            [str(BUILD_DIR / "csb" / "tools" / "csbgen"), "report",
             str(trace_file), "--check"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.rstrip())
        result["attempted"] += 1
        if check.returncode != 0:
            result["failed"] += 1
            result["correct"] = False
            print("FAILED: csbgen report --check rejected the trace")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
