#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune (build tree under
.bench_build/, dune's shared cache off), then runs it. The benchmark's
standard output is passed through; its last line is the JSON result. Build
output goes to standard error. The full record of each run (and, for
--trace 1, its spans) is also written under .bench_build/perfbench/.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the program and benchmark sources, for the record."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".c", "dune", ".py")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["solve-cold", "serve-churn"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    # keep every file the build and the run write inside the checkout
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    env.pop("KRSP_TRACE", None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "--profile", "release",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out", OUT_DIR,
           "--stamp", "commit=" + commit(), "--stamp", "src_sha256=" + source_digest(),
           "--stamp", "host=" + platform.node(), "--stamp", "cpu=" + cpu_model(),
           "--stamp", "kernel=" + platform.release()]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
