#!/usr/bin/env python3
"""Self-test for tmerge_lint.py: seeds a temporary bad tree and asserts
every rule fires (and that suppressions and comment-stripping keep the
false-positive rate at zero). Registered as the `tmerge_lint_selftest`
ctest — a linter that silently stopped matching would otherwise keep
reporting a clean tree forever."""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import tmerge_lint  # noqa: E402


def run_on(tree: dict[str, str]) -> list[str]:
    """Writes {relpath: content} into a temp root and lints it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        for rel, content in tree.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        linter = tmerge_lint.Linter(root)
        linter.run(["src", "bench", "tests", "examples"])
        return linter.violations


GOOD_HEADER = """#ifndef TMERGE_X_GOOD_H_
#define TMERGE_X_GOOD_H_
namespace tmerge::x {
inline int Ok() { return 0; }
}  // namespace tmerge::x
#endif  // TMERGE_X_GOOD_H_
"""


class RuleFiringTest(unittest.TestCase):
    def assert_rule(self, content, rule, rel="src/tmerge/x/f.cc"):
        violations = run_on({rel: content})
        self.assertTrue(
            any(f"[{rule}]" in v for v in violations),
            f"expected [{rule}] violation, got: {violations}")

    def test_random_device_banned(self):
        self.assert_rule("int f() { std::random_device rd; return rd(); }",
                        "randomness")

    def test_rand_banned(self):
        self.assert_rule("int f() { return rand(); }", "randomness")

    def test_srand_banned(self):
        self.assert_rule("void f() { srand(42); }", "randomness")

    def test_system_clock_banned(self):
        self.assert_rule(
            "auto f() { return std::chrono::system_clock::now(); }",
            "wall-clock")

    def test_steady_clock_outside_allowlist_banned(self):
        self.assert_rule(
            "auto f() { return std::chrono::steady_clock::now(); }",
            "wall-clock")

    def test_sleep_for_banned(self):
        self.assert_rule(
            "void f() { std::this_thread::sleep_for(1ms); }", "no-sleep")

    def test_sleep_until_banned(self):
        self.assert_rule(
            "void f() { std::this_thread::sleep_until(t); }", "no-sleep")

    def test_posix_sleep_banned(self):
        self.assert_rule("void f() { usleep(100); }", "no-sleep")
        self.assert_rule("void f() { sleep(1); }", "no-sleep")
        self.assert_rule("void f() { nanosleep(&ts, nullptr); }", "no-sleep")

    def test_getenv_banned(self):
        self.assert_rule('const char* f() { return std::getenv("X"); }',
                         "environment")
        self.assert_rule('const char* f() { return secure_getenv("X"); }',
                         "environment")

    def test_wrong_header_guard(self):
        self.assert_rule("#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n",
                        "header-guard", rel="src/tmerge/x/f.h")

    def test_mismatched_define(self):
        self.assert_rule(
            "#ifndef TMERGE_X_F_H_\n#define OTHER_H_\n#endif\n",
            "header-guard", rel="src/tmerge/x/f.h")

    def test_using_namespace_in_header(self):
        self.assert_rule(
            "#ifndef TMERGE_X_F_H_\n#define TMERGE_X_F_H_\n"
            "using namespace std;\n#endif\n",
            "using-namespace", rel="src/tmerge/x/f.h")

    def test_iostream_in_header(self):
        self.assert_rule(
            "#ifndef TMERGE_X_F_H_\n#define TMERGE_X_F_H_\n"
            "#include <iostream>\n#endif\n",
            "iostream-header", rel="src/tmerge/x/f.h")

    def test_naked_new_banned(self):
        self.assert_rule("int* f() { return new int(3); }", "naked-new")

    def test_naked_array_new_banned(self):
        self.assert_rule("int* f() { return new int[8]; }", "naked-new")

    def test_naked_delete_banned(self):
        self.assert_rule("void f(int* p) { delete p; }", "naked-new")

    def test_naked_array_delete_banned(self):
        self.assert_rule("void f(int* p) { delete[] p; }", "naked-new")

    def test_event_name_uppercase_banned(self):
        self.assert_rule('void f() { TMERGE_SPAN("Stream.Ingest"); }',
                        "event-name")

    def test_event_name_space_banned(self):
        self.assert_rule(
            'void f() { TMERGE_TRACE_INSTANT("stream admit"); }',
            "event-name")

    def test_event_name_registry_getters_checked(self):
        self.assert_rule(
            'auto& c = registry.GetCounter("stream.Bad-Name");',
            "event-name")

    def test_event_name_checked_in_tests_dir_too(self):
        # The naming grammar is repo-wide: test metrics feed the same
        # exporters and goldens.
        self.assert_rule('void f() { TMERGE_TRACE_COUNTER("BadName", 1); }',
                        "event-name", rel="tests/x/f.cc")


class NoFalsePositiveTest(unittest.TestCase):
    def test_clean_header_passes(self):
        self.assertEqual(run_on({"src/tmerge/x/good.h": GOOD_HEADER}), [])

    def test_comments_do_not_fire(self):
        content = ("// std::random_device is banned; so is system_clock\n"
                   "/* rand() and srand() too */\n"
                   "int f() { return 0; }\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_string_literals_do_not_fire(self):
        content = 'const char* kMsg = "never call srand() here";\n'
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_allow_suppression(self):
        content = ("int f() { return rand(); }"
                   "  // tmerge-lint: allow(randomness)\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_allow_is_rule_specific(self):
        content = ("int f() { return rand(); }"
                   "  // tmerge-lint: allow(wall-clock)\n")
        violations = run_on({"src/tmerge/x/f.cc": content})
        self.assertTrue(any("[randomness]" in v for v in violations))

    def test_randomness_free_in_tests_dir(self):
        # The randomness ban is scoped to src/ — tests may use ad-hoc
        # entropy-free LCGs or (rarely) ambient entropy.
        content = "int f() { return rand(); }\n"
        self.assertEqual(run_on({"tests/x/f.cc": content}), [])

    def test_identifier_substrings_do_not_fire(self):
        content = ("int operand(int x) { return x; }\n"
                   "int g() { return operand(1); }\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_sleep_identifier_substrings_do_not_fire(self):
        # Mentions in comments and sleep-like identifiers must not fire.
        content = ("// never sleep_for in src/ (see no-sleep rule)\n"
                   "int oversleep(int x) { return x; }\n"
                   "int g() { return oversleep(1); }\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_getenv_allowed_in_bench_dir(self):
        # Only the library is environment-free; bench programs parse knobs.
        content = 'const char* f() { return std::getenv("TMERGE_OBS"); }\n'
        self.assertEqual(run_on({"bench/f.cc": content}), [])

    def test_sleep_allowed_in_tests_dir(self):
        content = "void f() { std::this_thread::sleep_for(1ms); }\n"
        self.assertEqual(run_on({"tests/x/f.cc": content}), [])

    def test_deleted_member_is_not_naked_delete(self):
        content = ("struct NoCopy {\n"
                   "  NoCopy(const NoCopy&) = delete;\n"
                   "  NoCopy& operator=(const NoCopy&) =\n"
                   "      delete;\n"
                   "};\n")
        self.assertEqual(run_on({"src/tmerge/x/f.h": content
                                 .replace("struct",
                                          "#ifndef TMERGE_X_F_H_\n"
                                          "#define TMERGE_X_F_H_\n"
                                          "struct", 1) + "#endif\n"}), [])

    def test_operator_new_declaration_is_not_naked(self):
        content = ("struct Arena {\n"
                   "  void* operator new(std::size_t n);\n"
                   "  void operator delete(void* p);\n"
                   "};\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_new_identifier_substrings_do_not_fire(self):
        content = ("int renew(int x) { return x; }\n"
                   "int new_count = 0;  // `new` name prefix, not the "
                   "keyword\n")
        violations = run_on({"src/tmerge/x/f.cc": content})
        self.assertEqual(
            [v for v in violations if "[naked-new]" in v], [])

    def test_naked_new_allowed_in_tests_dir(self):
        content = "int* f() { return new int(3); }\n"
        self.assertEqual(run_on({"tests/x/f.cc": content}), [])

    def test_naked_new_allow_suppression(self):
        content = ("static Registry* r = new Registry();"
                   "  // tmerge-lint: allow(naked-new)\n")
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_event_name_valid_names_pass(self):
        content = ('void f() {\n'
                   '  TMERGE_SPAN("stream.merge_job.seconds");\n'
                   '  TMERGE_TRACE_SCOPE("stream.frame.ingest");\n'
                   '  TMERGE_TRACE_COUNTER("core.pool.tasks2", 1);\n'
                   '}\n')
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_event_name_non_literal_args_skipped(self):
        # Computed names (LabeledName etc.) are out of the rule's reach.
        content = ('auto& g = registry.GetGauge(\n'
                   '    obs::LabeledName("stream.q", {{"camera", id}}));\n')
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_event_name_allow_suppression(self):
        content = ('void f() { TMERGE_SPAN("Legacy.Name"); }'
                   '  // tmerge-lint: allow(event-name)\n')
        self.assertEqual(run_on({"src/tmerge/x/f.cc": content}), [])

    def test_steady_clock_allowlist_is_trace_clock_only(self):
        self.assertEqual(tmerge_lint.STEADY_CLOCK_ALLOWLIST,
                         {"src/tmerge/obs/trace_clock.h"})


class GuardDerivationTest(unittest.TestCase):
    def test_src_prefix_stripped(self):
        self.assertEqual(
            tmerge_lint.expected_guard(
                pathlib.PurePosixPath("src/tmerge/core/rng.h")),
            "TMERGE_CORE_RNG_H_")

    def test_non_src_keeps_tmerge_root(self):
        self.assertEqual(
            tmerge_lint.expected_guard(
                pathlib.PurePosixPath("tests/testing/test_util.h")),
            "TMERGE_TESTS_TESTING_TEST_UTIL_H_")
        self.assertEqual(
            tmerge_lint.expected_guard(
                pathlib.PurePosixPath("bench/bench_util.h")),
            "TMERGE_BENCH_BENCH_UTIL_H_")


if __name__ == "__main__":
    unittest.main()
