#!/usr/bin/env python3
"""Build and run the mvreju wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: serve_camera, serve_saturate, av_campaign, dspn_sweep ("all" runs
the four in turn). The first run configures and builds the program's
libraries and the perfbench program into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the program's JSON
result. Exits non-zero when the build fails, an output check fails, or the
metric catalogue disagrees with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_camera", "serve_saturate", "av_campaign", "dspn_sweep"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build; returns the program's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def check_catalogue(binary):
    """BENCHMARK.json must list exactly the metrics the program prints."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            timeout=30, check=True).stdout
    catalogue = json.loads(listed)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in catalogue[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in spec.get(key, [])]
        if want != have:
            sys.exit("perfbench: BENCHMARK.json %s differs from the program's catalogue" % key)


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir(), "trace-%s.json" % workload)]
    # Inherit stdout: the program's last line is the JSON result.
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    binary = build()
    print("perfbench: build ready in %.1f s" % (time.monotonic() - started), file=sys.stderr)
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"], timeout=60, check=False).returncode)
    check_catalogue(binary)
    sys.stdout.flush()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, args, w) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
