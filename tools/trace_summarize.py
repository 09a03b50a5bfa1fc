#!/usr/bin/env python3
"""Summarize a tmerge Chrome-trace JSON dump as per-stage latency tables.

The flight recorder (src/tmerge/obs/trace.h) exports Chrome trace-event
JSON — {"traceEvents": [...]} with B/E duration pairs, "i" instants and
"C" counter samples, timestamps in microseconds. This tool turns one such
dump (bench_stream's TRACE_JSON artifact, a stall post-mortem, a test
golden) into the tables a human actually wants from a soak log:

* **spans** — for every B/E event name: count, and the
  min/mean/p50/p90/p99/max of the begin-to-end wall duration, computed
  per thread with a per-name stack so nested and repeated scopes pair
  correctly. Unbalanced events (a begin whose end was overwritten by the
  ring, or vice versa) are counted, not guessed at.
* **instants** — occurrence counts per name (admission verdicts,
  force-flushes, enqueue/dequeue marks).
* **counters** — last/min/max of each sampled series (queue depths,
  in-flight jobs).

Right under the header it reports how much of the recording the dump
kept, from the exporter's "otherData" counts: events recorded, events
exported, and threads dropped. Dumps without those counts say so.

Spans whose begin event carries a simulated timestamp ("sim_s" arg) get
a sim-time column reporting the mean sim clock at stage entry: wall
duration tells you what the host did, the sim timestamp locates the
stage on the deterministic clock the pipeline runs on. (Scope end
events deliberately do not re-record sim time — it cannot advance
inside a scope — so a sim *duration* would always be zero.)

Zero third-party dependencies (json + argparse only), same policy as the
other tools here. Exit 0 on success, 1 for unreadable/empty input, so CI
can use it as a cheap trace validity check:

    python3 tools/trace_summarize.py bench_stream_trace.json
"""

import argparse
import json
import sys


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list (fraction in [0,1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * fraction // 1))  # ceil
    index = min(len(sorted_values), int(rank)) - 1
    return sorted_values[index]


def load_trace(path):
    """Returns (traceEvents list, otherData dict), or raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError('no "traceEvents" array — not a Chrome trace')
    other = payload.get("otherData")
    return events, other if isinstance(other, dict) else {}


def retention_line(other):
    """One line on how much of the recording the dump kept."""
    try:
        recorded = int(other["recorded"])
        exported = int(other["exported"])
        dropped = int(other["dropped_threads"])
    except (KeyError, TypeError, ValueError):
        return ("recorded and exported event counts unknown: this dump "
                "has no otherData")
    lost = 100.0 * (recorded - exported) / recorded if recorded else 0.0
    return (f"kept {exported} of {recorded} recorded events ({lost:.1f} % "
            f"lost to ring wraparound or a last-N snapshot), {dropped} "
            f"thread(s) dropped")


def pair_spans(events):
    """Matches B/E pairs per (tid, name) with a stack per key.

    Returns (spans, unbalanced) where spans maps name -> list of
    {"wall_us": float, "sim_s": float | None} and unbalanced counts
    begins without ends plus ends without begins.
    """
    stacks = {}
    spans = {}
    unbalanced = 0
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        key = (event.get("tid"), event.get("name"))
        if phase == "B":
            stacks.setdefault(key, []).append(event)
            continue
        stack = stacks.get(key)
        if not stack:
            unbalanced += 1  # end survived the ring; its begin did not
            continue
        begin = stack.pop()
        record = {"wall_us": event["ts"] - begin["ts"],
                  "sim_s": begin.get("args", {}).get("sim_s")}
        spans.setdefault(event["name"], []).append(record)
    unbalanced += sum(len(stack) for stack in stacks.values())
    return spans, unbalanced


def format_table(headers, rows):
    """Plain fixed-width table (the core/table_printer.h look)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def span_rows(spans):
    rows = []
    for name in sorted(spans):
        wall = sorted(s["wall_us"] for s in spans[name])
        sims = [s["sim_s"] for s in spans[name] if s["sim_s"] is not None]
        mean = sum(wall) / len(wall)
        row = [
            name,
            str(len(wall)),
            "%.1f" % wall[0],
            "%.1f" % mean,
            "%.1f" % percentile(wall, 0.50),
            "%.1f" % percentile(wall, 0.90),
            "%.1f" % percentile(wall, 0.99),
            "%.1f" % wall[-1],
        ]
        if sims:
            row.append("%.3f" % (sum(sims) / len(sims)))
        else:
            row.append("-")
        rows.append(row)
    return rows


def counter_rows(events):
    series = {}
    for event in events:
        if event.get("ph") != "C":
            continue
        value = event.get("args", {}).get("value", 0)
        series.setdefault(event["name"], []).append(value)
    rows = []
    for name in sorted(series):
        values = series[name]
        rows.append([name, str(len(values)), str(min(values)),
                     str(max(values)), str(values[-1])])
    return rows


def instant_rows(events):
    counts = {}
    for event in events:
        if event.get("ph") == "i":
            counts[event["name"]] = counts.get(event["name"], 0) + 1
    return [[name, str(counts[name])] for name in sorted(counts)]


def main(argv):
    parser = argparse.ArgumentParser(
        description="Per-stage latency summary of a tmerge Chrome trace.")
    parser.add_argument("trace", help="Chrome trace JSON file (traceEvents)")
    args = parser.parse_args(argv)

    try:
        events, other = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"trace_summarize: cannot read {args.trace}: {error}",
              file=sys.stderr)
        return 1
    if not events:
        print(f"trace_summarize: {args.trace} has zero events",
              file=sys.stderr)
        return 1

    threads = {e.get("tid") for e in events}
    print(f"{args.trace}: {len(events)} events across "
          f"{len(threads)} thread(s)")
    print(retention_line(other))

    spans, unbalanced = pair_spans(events)
    if spans:
        print("\n== spans (wall microseconds; sim seconds where recorded) ==")
        print(format_table(
            ["stage", "count", "min", "mean", "p50", "p90", "p99", "max",
             "sim-mean-s"],
            span_rows(spans)))
    if unbalanced:
        print(f"({unbalanced} unbalanced begin/end events — ring "
              "wraparound trimmed their partners; durations above use "
              "complete pairs only)")

    rows = instant_rows(events)
    if rows:
        print("\n== instants ==")
        print(format_table(["event", "count"], rows))

    rows = counter_rows(events)
    if rows:
        print("\n== counters ==")
        print(format_table(["series", "samples", "min", "max", "last"],
                           rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
