#!/usr/bin/env python3
"""Build and run one workload of the RMCC simulator benchmark.

    python3 perfbench/run.py --workload replay-canneal --seed 42 \
        --seconds 10 --trace 0

Run from the repository root.  The script builds perfbench/ (which
compiles ../src) into .bench_build/, clears every RMCC_* environment
variable, pins RMCC_JOBS and the shared-graph cache directory, and runs
the benchmark program.  Its last line of output is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "rmcc_perfbench")
WORKLOADS = ("replay-canneal", "replay-pagerank", "replay-omnetpp",
             "sweep-grid")
RUN_TIMEOUT_S = 170


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def hermetic_env():
    """The caller's environment minus RMCC_*, plus the pinned values."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RMCC_")}
    graph_dir = os.path.join(WORK, "graph-cache")
    tmp_dir = os.path.join(WORK, "tmp")
    os.makedirs(graph_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env["RMCC_JOBS"] = str(jobs())
    env["RMCC_GRAPH_CACHE_DIR"] = graph_dir
    env["TMPDIR"] = tmp_dir
    # Keep freed memory in the process instead of returning it to the
    # kernel.  Every replay builds a fresh rig of ~50 MB; with glibc's
    # defaults each one is mmap'd and page-faulted anew, and on a virtual
    # machine those faults alone swung replay throughput by +-30% from run
    # to run.  With these settings only the first rig of a process faults.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 32)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 34)
    return env


def build(env):
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "--target",
                            "rmcc_perfbench", "-j", str(jobs())]):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    env = hermetic_env()
    build(env)
    pinned = ("RMCC_JOBS", "RMCC_GRAPH_CACHE_DIR", "TMPDIR",
              "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    print("env: " + " ".join("%s=%s" % (k, env[k]) for k in pinned) +
          "; all other RMCC_* cleared", flush=True)
    if not os.listdir(env["RMCC_GRAPH_CACHE_DIR"]):
        # Build the shared-graph cache in a process of its own, so that no
        # measured run carries the one-time build in its peak RSS.
        try:
            prep = subprocess.run([BINARY, "--workload", "prepare-graph"],
                                  cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: building the graph cache exceeded %d s"
                     % RUN_TIMEOUT_S)
        if prep.returncode:
            sys.exit("perfbench: building the graph cache failed")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
