#!/usr/bin/env python3
"""End-to-end benchmark of the tmerge library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the library from src/) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The benchmark's own output goes to stdout; the last line is one
JSON object with the keys correct, attempted, failed and metrics, holding
exactly the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Build output goes to stderr. Any failure
exits non-zero without printing a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sampling", "exhaustive", "stream")
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tmerge sources next to perfbench/; run from a full checkout")
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "3"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return out


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, args, contract):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if proc.returncode != 0:
        fail("tmerge_perfbench exited with %d" % proc.returncode)
    if result is None:
        fail("tmerge_perfbench printed no result")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        measured = result["metrics"].get(spec["name"])
        if measured is None:
            fail("metric %s missing from the %s workload" % (spec["name"], args.workload))
        if measured["unit"] != spec["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (spec["name"], measured["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": measured["value"], "unit": measured["unit"]}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    sys.stdout.flush()
    print(json.dumps(line))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    contract = None if args.self_test else load_contract()
    out = build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    run_workload(os.path.join(out, "tmerge_perfbench"), args, contract)


if __name__ == "__main__":
    main()
