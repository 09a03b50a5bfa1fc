#!/usr/bin/env python3
"""Check the paper benches' deterministic output against committed goldens.

bench_fig05_rec_fps, bench_tab02_fps_at_rec, bench_fig07_tau_sweep,
bench_fig08_ablation, bench_fig11_poly_rate and bench_fig12_id_metrics are
seeded end to end: every REC, simulated FPS and second, every inference,
distance and cache-hit count, and every rate and identity metric they print
is fixed, and none of it depends on the thread count. The one exception is
fig07's ``wall-seconds`` column, which is masked here rather than pinned.
fig08 is the only one that runs TMerge with BetaInit or ULB switched off,
fig11 the only one that runs the DeepSORT-like tracker, and fig12 the only
one that computes identity metrics (IDF1, IDP, IDR, ID switches).

This tool runs each bench with ``TMERGE_OBS=0 TMERGE_NUM_THREADS=4``,
masks the wall-clock columns and compares stdout with
bench/goldens/<name>.txt. On a mismatch it prints a unified diff and exits
1; ``--update`` rewrites the goldens instead.

Build the benches first (Release), then run from anywhere inside a
checkout:

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build --target bench_fig05_rec_fps \\
        bench_tab02_fps_at_rec bench_fig07_tau_sweep bench_fig08_ablation \\
        bench_fig11_poly_rate bench_fig12_id_metrics
    python3 tools/paper_goldens.py            # check
    python3 tools/paper_goldens.py --update   # re-pin after a deliberate change
"""

import argparse
import difflib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build")
GOLDENS = os.path.join(ROOT, "bench", "goldens")
BENCHES = ("fig05_rec_fps", "tab02_fps_at_rec", "fig07_tau_sweep",
           "fig08_ablation", "fig11_poly_rate", "fig12_id_metrics")
# The one table column that holds wall-clock time (fig07's). It must be
# its table's last column: the printer pads every column to its widest
# cell, so a masked column anywhere else would shift the ones after it.
MASKED_COLUMN = "wall-seconds"
MASK = "<masked>"


def fail(message):
    print("paper_goldens: " + message, file=sys.stderr)
    sys.exit(2)


def run(name):
    """Returns the stdout of one bench run."""
    binary = os.path.join(BUILD, "bench", "bench_" + name)
    if not os.access(binary, os.X_OK):
        fail("%s is not built" % binary)
    env = dict(os.environ, TMERGE_OBS="0", TMERGE_NUM_THREADS="4")
    done = subprocess.run([binary], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        fail("%s exited with %d" % (binary, done.returncode))
    return done.stdout


def mask(text):
    """Replaces every cell of the masked column, header and rule kept."""
    lines = text.splitlines(True)
    out = []
    offset = None
    for i, line in enumerate(lines):
        body = line.rstrip("\n")
        header = (i + 1 < len(lines) and
                  set(lines[i + 1].rstrip("\n")) == {"-"})
        if header:
            at = body.find(MASKED_COLUMN)
            if at >= 0 and body[at + len(MASKED_COLUMN):].strip():
                fail("%r is not its table's last column" % MASKED_COLUMN)
            offset = at if at >= 0 else None
        elif not body:
            offset = None
        elif offset is not None:
            fill = "-" * len(MASK) if set(body) == {"-"} else MASK
            line = body[:offset] + fill + "\n"
        out.append(line)
    return "".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of checking them")
    args = parser.parse_args()

    moved = 0
    for name in BENCHES:
        path = os.path.join(GOLDENS, name + ".txt")
        rel = os.path.relpath(path, ROOT)
        now = mask(run(name))
        if args.update:
            os.makedirs(GOLDENS, exist_ok=True)
            with open(path, "w") as f:
                f.write(now)
            print("paper_goldens: wrote " + rel)
            continue
        try:
            with open(path) as f:
                golden = f.read()
        except OSError as error:
            fail("cannot read golden: %s" % error)
        if now == golden:
            print("paper_goldens: %s matches" % rel)
            continue
        moved += 1
        sys.stdout.writelines(difflib.unified_diff(
            golden.splitlines(True), now.splitlines(True),
            fromfile=rel + " (golden)", tofile=rel + " (this checkout)"))
    if moved:
        print("paper_goldens: %d bench output(s) moved; if that is intended, "
              "rerun with --update and say why in the change" % moved)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
