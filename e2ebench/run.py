#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

The build goes to .bench_build/e2ebench (CMake, Release) and is reused by
later runs. Build output goes to stderr; the benchmark's own report goes to
stdout, whose last line is the JSON result. Traced runs write their spans
to .bench_build/traces. See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def commit_stamp():
    rev = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    return f"{rev}+src-{source_digest()}"


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if cfg.returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=56)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"e2ebench: no HAMLET sources under {ROOT}", file=sys.stderr)
        return 1
    target = "e2ebench_selftest" if args.selftest else "e2ebench"
    if not build([target]):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / target)]
    if not args.selftest:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", commit_stamp(),
                "--trace-dir", str(ROOT / ".bench_build" / "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
