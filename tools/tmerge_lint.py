#!/usr/bin/env python3
"""tmerge repo-invariant linter.

Enforces the source-tree contracts that neither the compiler nor the unit
tests can see (DESIGN.md "Static analysis & enforced invariants"):

  determinism
    - no std::random_device / rand() / srand() anywhere under src/ —
      every random draw must flow from an explicit seed through
      core/rng.h, or TMerge's reproducibility claims (bit-identical
      results for any thread count) silently rot.
    - no std::chrono::system_clock under src/, and steady_clock only in
      an explicit allowlist (obs/trace_clock.h — the one sanctioned
      wall-clock source; spans, WallTimer and the thread pool all read it).
      Recall/FPS numbers come from the simulated cost model; a stray
      wall-clock read would let host load leak into "measurements".
    - no sleeping under src/ (this_thread::sleep_for/sleep_until,
      sleep/usleep/nanosleep). Simulated latency — retry backoff and
      injected latency spikes above all — is *charged* to the cost-model
      SimClock (reid/cost_model.h), never slept: a real sleep would make
      wall-clock results scheduler-dependent and stall test suites.
    - no getenv / secure_getenv under src/. The library reads no
      environment: every knob is an explicit option or argument, so a
      stray variable in a CI runner or a user's shell cannot change what
      a run computes. Environment parsing belongs to the bench/ programs.

  hygiene
    - header guards must be TMERGE_<PATH>_H_ derived from the file path,
      so guards never collide as the tree grows.
    - no `using namespace` in headers (leaks into every includer).
    - no <iostream> in headers (global-constructor and compile-time tax;
      headers needing formatted output take a stream or use <cstdio> in
      the .cc).
    - no naked `new` / `delete` expressions under src/. Ownership flows
      through std::unique_ptr / make_unique (or containers); the only
      sanctioned exception is the intentionally-leaked function-local
      singleton (Meyers-singleton-with-leak, used by the obs and fault
      registries to dodge shutdown-order fiascos), which carries an
      explicit allow comment. `= delete`d special members and
      `operator new/delete` declarations are not expressions and don't
      fire.
    - metric/trace event names passed as literals to TMERGE_SPAN,
      TMERGE_TRACE_*, or registry Get* must be lowercase dotted
      identifiers (`stream.merge_job.seconds`), so exporters, dashboards
      and trace_summarize.py can rely on one naming grammar. Computed
      names (e.g. obs::LabeledName) are out of this rule's reach and
      follow the same convention by construction.

Zero third-party dependencies; runs as a tier-1 ctest and in the CI
static-analysis job. Exit code 0 = clean, 1 = violations, 2 = usage error.

A line can opt out of a named rule with a trailing comment:
    foo();  // tmerge-lint: allow(<rule>)
where <rule> is one of: randomness, wall-clock, no-sleep, environment,
header-guard, using-namespace, iostream-header, event-name, naked-new.
Use sparingly; the allowlists above are preferred for whole-file
exemptions.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# steady_clock is legitimate in exactly one place: the obs trace clock.
# Every real-time measurement (trace events, span histograms, WallTimer,
# thread-pool queue-wait timing) routes through obs::TraceClockNanos(), so
# the determinism audit is a one-header read.
STEADY_CLOCK_ALLOWLIST = {
    "src/tmerge/obs/trace_clock.h",
}

HEADER_EXTENSIONS = {".h", ".hpp", ".hh"}
SOURCE_EXTENSIONS = HEADER_EXTENSIONS | {".cc", ".cpp", ".cxx"}

ALLOW_RE = re.compile(r"tmerge-lint:\s*allow\(([a-z-]+)\)")

RANDOMNESS_RE = re.compile(
    r"std::random_device|\brandom_device\b|(?<![\w:.])s?rand\s*\(")
SYSTEM_CLOCK_RE = re.compile(r"\bsystem_clock\b")
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")
SLEEP_RE = re.compile(
    r"\bsleep_for\b|\bsleep_until\b|(?<![\w:.])(?:sleep|usleep|nanosleep)\s*\(")
GETENV_RE = re.compile(r"(?<![\w.])(?:secure_)?getenv\s*\(")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
# `new` as an expression head: `new T(...)`, `new T[...]`, placement new.
# The lookbehind keeps identifiers like `renew`/`anew` and qualified names
# out; `operator new` declarations and `= delete`d members are filtered at
# the match site (they are declarations, not expressions).
NAKED_NEW_RE = re.compile(r"(?<![\w:.])(new|delete)\b")
IOSTREAM_RE = re.compile(r'#\s*include\s*[<"]iostream[>"]')

# A metric/trace name site whose first argument is a string literal opening
# on the same line. strip_comments() blanks literal *contents* but keeps
# the quote characters in place, so the match is found on the stripped line
# and the name itself is sliced out of the raw line at the same columns.
EVENT_NAME_CALL_RE = re.compile(
    r"\b(?:TMERGE_SPAN|TMERGE_TRACE_SCOPE|TMERGE_TRACE_INSTANT|"
    r"TMERGE_TRACE_COUNTER|GetCounter|GetGauge|GetHistogram)\s*\(\s*\"")
EVENT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)*$")


def strip_comments(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines.

    Keeps line/column positions stable so diagnostics still point at the
    original source. Good enough for the token-level bans above; not a full
    lexer (raw strings are treated as plain strings).
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" and c != quote else c)
        i += 1
    return "".join(out)


def expected_guard(relpath: pathlib.PurePosixPath) -> str:
    """src/tmerge/core/rng.h -> TMERGE_CORE_RNG_H_ (and bench/tests files
    keep their directory prefix: tests/testing/test_util.h ->
    TMERGE_TESTS_TESTING_TEST_UTIL_H_)."""
    parts = list(relpath.parts)
    if parts[0] == "src":
        parts = parts[1:]  # src/tmerge/... -> tmerge/...
    else:
        parts = ["tmerge"] + parts  # bench/..., tests/... keep a TMERGE_ root
    stem = "/".join(parts)
    return re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.violations: list[str] = []

    def report(self, path: pathlib.Path, line: int, rule: str, message: str):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line}: [{rule}] {message}")

    def allowed(self, raw_line: str, rule: str) -> bool:
        match = ALLOW_RE.search(raw_line)
        return match is not None and match.group(1) == rule

    def lint_file(self, path: pathlib.Path):
        rel = pathlib.PurePosixPath(path.relative_to(self.root).as_posix())
        raw = path.read_text(encoding="utf-8")
        raw_lines = raw.splitlines()
        code_lines = strip_comments(raw).splitlines()
        in_src = rel.parts[0] == "src"
        is_header = path.suffix in HEADER_EXTENSIONS

        for lineno, (code, orig) in enumerate(zip(code_lines, raw_lines), 1):
            if in_src and RANDOMNESS_RE.search(code):
                if not self.allowed(orig, "randomness"):
                    self.report(path, lineno, "randomness",
                                "ambient randomness is banned in src/; "
                                "derive draws from an explicit seed via "
                                "core/rng.h")
            if in_src and SYSTEM_CLOCK_RE.search(code):
                if not self.allowed(orig, "wall-clock"):
                    self.report(path, lineno, "wall-clock",
                                "system_clock is banned in src/; simulated "
                                "time comes from core/sim_clock.h")
            if (in_src and str(rel) not in STEADY_CLOCK_ALLOWLIST
                    and STEADY_CLOCK_RE.search(code)):
                if not self.allowed(orig, "wall-clock"):
                    self.report(path, lineno, "wall-clock",
                                "steady_clock outside the allowlist "
                                f"({', '.join(sorted(STEADY_CLOCK_ALLOWLIST))}); "
                                "route timing through obs spans or "
                                "core/sim_clock.h")
            if in_src and SLEEP_RE.search(code):
                if not self.allowed(orig, "no-sleep"):
                    self.report(path, lineno, "no-sleep",
                                "sleeping is banned in src/; charge "
                                "simulated latency to the cost-model "
                                "SimClock (reid/cost_model.h) instead")
            if in_src and GETENV_RE.search(code):
                if not self.allowed(orig, "environment"):
                    self.report(path, lineno, "environment",
                                "getenv is banned in src/; the library "
                                "reads no environment, so take the value "
                                "as an option and parse it in bench/")
            if in_src:
                for m in NAKED_NEW_RE.finditer(code):
                    kw = m.group(1)
                    before = code[:m.start()].rstrip()
                    if kw == "delete" and not before:
                        # Wrapped `... =\n    delete;` — look back.
                        for prev in reversed(code_lines[:lineno - 1]):
                            if prev.strip():
                                before = prev.rstrip()
                                break
                    if kw == "delete" and before.endswith("="):
                        continue  # `= delete`d member: a declaration
                    if before.endswith("operator"):
                        continue  # operator new/delete declaration
                    if self.allowed(orig, "naked-new"):
                        continue
                    self.report(path, lineno, "naked-new",
                                f"naked `{kw}` in src/; own memory with "
                                "std::unique_ptr / make_unique (leaked "
                                "function-local singletons carry an "
                                "explicit allow comment)")
            if is_header and USING_NAMESPACE_RE.search(code):
                if not self.allowed(orig, "using-namespace"):
                    self.report(path, lineno, "using-namespace",
                                "`using namespace` in a header leaks into "
                                "every includer")
            if is_header and IOSTREAM_RE.search(code):
                if not self.allowed(orig, "iostream-header"):
                    self.report(path, lineno, "iostream-header",
                                "<iostream> in a header; include it in the "
                                ".cc or take a std::ostream&")
            for m in EVENT_NAME_CALL_RE.finditer(code):
                start = m.end()  # just past the opening quote
                end = code.find('"', start)
                if end == -1:
                    continue  # literal spans lines; out of this rule's reach
                name = orig[start:end]
                if not EVENT_NAME_RE.match(name):
                    if not self.allowed(orig, "event-name"):
                        self.report(path, lineno, "event-name",
                                    f'metric/trace name "{name}" must be a '
                                    "lowercase dotted identifier "
                                    "([a-z0-9_] segments joined by '.')")

        if is_header:
            self.lint_header_guard(path, rel, code_lines, raw_lines)

    def lint_header_guard(self, path, rel, code_lines, raw_lines):
        guard = expected_guard(rel)
        ifndef_re = re.compile(r"#\s*ifndef\s+(\w+)")
        define_re = re.compile(r"#\s*define\s+(\w+)")
        for lineno, code in enumerate(code_lines, 1):
            if not code.strip():
                continue
            m = ifndef_re.match(code.strip())
            if not m:
                self.report(path, lineno, "header-guard",
                            f"first directive must be `#ifndef {guard}`")
                return
            if m.group(1) != guard:
                if not self.allowed(raw_lines[lineno - 1], "header-guard"):
                    self.report(path, lineno, "header-guard",
                                f"guard {m.group(1)} should be {guard} "
                                "(derived from the file path)")
                return
            # The very next non-blank code line must define the same guard.
            for lineno2, code2 in enumerate(code_lines[lineno:], lineno + 1):
                if not code2.strip():
                    continue
                m2 = define_re.match(code2.strip())
                if not m2 or m2.group(1) != guard:
                    self.report(path, lineno2, "header-guard",
                                f"`#ifndef {guard}` must be followed by "
                                f"`#define {guard}`")
                return
            return

    def run(self, subdirs) -> int:
        files = []
        for sub in subdirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_EXTENSIONS and p.is_file())
        for path in files:
            self.lint_file(path)
        for violation in self.violations:
            print(violation)
        print(f"tmerge_lint: {len(files)} files scanned, "
              f"{len(self.violations)} violation(s)")
        return 1 if self.violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent's "
                             "parent)")
    parser.add_argument("subdirs", nargs="*",
                        default=["src", "bench", "tests", "examples"],
                        help="subtrees to scan (default: src bench tests "
                             "examples)")
    args = parser.parse_args()
    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    if not (root / "src").is_dir():
        print(f"tmerge_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    return Linter(root).run(args.subdirs)


if __name__ == "__main__":
    sys.exit(main())
