#!/usr/bin/env python3
"""Check perfbench's deterministic output lines against committed pins.

For a given workload and seed, part of perfbench's output never depends on
timing:

* the ``inputs:`` fingerprint of the generated scenes;
* the per-configuration lines of the reference pass (``sampling`` and
  ``exhaustive``: rec, sim_fps, box pairs and inferences per selector);
* ``sim_fps`` and ``rec`` in the JSON result line.

This tool runs ``perfbench/run.py --seconds 1 --trace 0`` for every
workload at seeds 1 and 4242, extracts those lines and compares them with
bench/perfbench_pins.txt. On a mismatch it prints a unified diff and exits
1; ``--update`` rewrites the file instead. Wall-clock figures and the
stream workload's scheduling counters (deferrals, backpressure, ...) vary
from run to run and are not pinned.

Run from anywhere inside a checkout:

    python3 tools/perfbench_pins.py            # check
    python3 tools/perfbench_pins.py --update   # re-pin after a deliberate change
"""

import argparse
import difflib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "bench", "perfbench_pins.txt")
WORKLOADS = ("sampling", "exhaustive", "stream")
SEEDS = (1, 4242)
REFERENCE_HEADER = "=== per configuration (reference pass) ==="
HEADER = ("# perfbench lines that are fixed per workload and seed. "
          "Checked by tools/perfbench_pins.py;\n"
          "# regenerate with --update only when a change moves them on "
          "purpose.\n")


def fail(message):
    print("perfbench_pins: " + message, file=sys.stderr)
    sys.exit(2)


def run(workload, seed):
    """Returns the stdout lines of one short untraced perfbench run."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail("%s exited with %d" % (" ".join(command), done.returncode))
    return done.stdout.splitlines()


def extract(lines):
    """Returns the deterministic lines of one run's stdout."""
    pinned = []
    in_reference = False
    for line in lines[:-1]:
        if line.startswith("inputs: "):
            pinned.append(line)
        elif line == REFERENCE_HEADER:
            in_reference = True
        elif in_reference and line.startswith("  "):
            pinned.append(line)
        else:
            in_reference = False
    result = json.loads(lines[-1])
    if result["failed"] != 0:
        fail("run reported %d failed checks" % result["failed"])
    metrics = result["metrics"]
    pinned.append("result: sim_fps=%r rec=%r" % (metrics["sim_fps"]["value"],
                                                 metrics["rec"]["value"]))
    return pinned


def collect():
    text = HEADER
    for workload in WORKLOADS:
        for seed in SEEDS:
            text += "[%s seed=%d]\n" % (workload, seed)
            text += "".join(line + "\n" for line in extract(run(workload, seed)))
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite %s instead of checking it" %
                        os.path.relpath(PINS, ROOT))
    args = parser.parse_args()

    now = collect()
    if args.update:
        with open(PINS, "w") as f:
            f.write(now)
        print("perfbench_pins: wrote " + PINS)
        return 0
    try:
        with open(PINS) as f:
            pinned = f.read()
    except OSError as error:
        fail("cannot read pins: %s" % error)
    if now == pinned:
        print("perfbench_pins: every pinned line matches")
        return 0
    rel = os.path.relpath(PINS, ROOT)
    sys.stdout.writelines(difflib.unified_diff(
        pinned.splitlines(True), now.splitlines(True),
        fromfile=rel + " (pinned)", tofile=rel + " (this checkout)"))
    print("perfbench_pins: output moved; if that is intended, rerun with "
          "--update and say why in the change")
    return 1


if __name__ == "__main__":
    sys.exit(main())
