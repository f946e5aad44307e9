#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark program, rapbench, is built
with CMake from perfbench/CMakeLists.txt, which compiles the repository's
libraries from src/; the build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, as does the state kept between runs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Any failure to build
or to produce that result exits with a non-zero status and no result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "scale_module", "deep_function", "rapd_edit")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def run_logged(cmd, log_path, timeout):
    """Runs a build step in its own process group, so a step that overruns
    is stopped together with the compilers it started."""
    with open(log_path, "ab") as log:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                             stderr=subprocess.STDOUT, start_new_session=True)
        try:
            return p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            return -1


def build(build_dir):
    """Configures once, then builds rapbench (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under src/; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_logged(["cmake", "-S", HERE, "-B", build_dir, *gen,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      log, BUILD_TIMEOUT_S) != 0:
            show_log_tail(log)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "--target", "rapbench",
                   "-j", jobs], log, BUILD_TIMEOUT_S) != 0:
        show_log_tail(log)
        fail("building the benchmark failed")
    return os.path.join(build_dir, "rapbench")


def show_log_tail(log):
    with open(log, errors="replace") as f:
        sys.stderr.write("".join(f.readlines()[-30:]))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    root = build_root()
    exe = build(os.path.join(root, "rapbench"))
    state = os.path.join(root, "state")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    if args.trace:
        traces = os.path.join(root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rapbench did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout)
        fail(f"rapbench exited with status {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(p.stdout)
        fail("rapbench printed no result line")
    want = expected_metrics(args.trace)
    if set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ want)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
