#!/usr/bin/env python3
"""Build the e2ebench program from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload imb_sendrecv|nas_fig6|rpc_open \
        --seed N --seconds S --trace 0|1

The program and the simulator libraries it links are compiled in Release
mode into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
later runs rebuild only what changed. The program's standard output is
passed through; its last line is the JSON result. Traced runs write
their Chrome trace JSON next to the build. A failed build, a crash or a
run longer than the time limit exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    # A build tree configured for another source location (a moved
    # checkout) cannot be reused; start it afresh.
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "e2ebench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     cwd=ROOT)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({' '.join(cmd)}); log: {log_path}")
    return os.path.join(build_dir, "e2ebench")


def check_metric_names(metrics, traced):
    """The program's metric list must match BENCHMARK.json, name and unit."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        units = sorted(k for k in want if k in got and want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["imb_sendrecv", "nas_fig6", "rpc_open"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = build(os.path.join(target, "e2ebench"))
    trace_dir = os.path.join(target, "e2ebench-traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", trace_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0:
        print("\n".join(lines[-20:]), file=sys.stderr)
        fail(f"e2ebench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("e2ebench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("e2ebench result has unexpected keys")
    check_metric_names(result["metrics"], args.trace == "1")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
