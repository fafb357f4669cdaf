#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""Unit tests for pasjoin_lint.

Each test builds a throwaway src/ tree under a temp directory and points the
linter's module globals (REPO_ROOT / SRC) at it, so the rules are exercised
against known-good and known-bad fixtures rather than the live tree. Run
directly or through ctest (registered in tests/CMakeLists.txt).
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pasjoin_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    """Base: a temp repo tree with REPO_ROOT/SRC patched onto it."""

    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = Path(self._tmp.name)
        self.src = self.root / "src"
        self.src.mkdir()
        self._saved = (pasjoin_lint.REPO_ROOT, pasjoin_lint.SRC)
        pasjoin_lint.REPO_ROOT = self.root
        pasjoin_lint.SRC = self.src
        self.addCleanup(self._restore)

    def _restore(self) -> None:
        pasjoin_lint.REPO_ROOT, pasjoin_lint.SRC = self._saved

    def write(self, rel: str, text: str) -> Path:
        path = self.src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def rules_of(self, violations) -> list[str]:
        return sorted(v.rule for v in violations)


class StripCommentsTest(unittest.TestCase):
    def test_blanks_comments_and_strings_keeps_lines(self) -> None:
        text = 'int a; // std::mutex\n/* std::mutex */ int b;\nconst char* s = "std::mutex";\n'
        out = pasjoin_lint.strip_comments_and_strings(text)
        self.assertEqual(len(out.splitlines()), 3)
        self.assertNotIn("std::mutex", out)
        self.assertIn("int a;", out)
        self.assertIn("int b;", out)

    def test_block_comment_spanning_lines(self) -> None:
        out = pasjoin_lint.strip_comments_and_strings(
            "before\n/* std::thread\nstd::thread */\nafter\n")
        self.assertEqual(len(out.splitlines()), 4)
        self.assertNotIn("std::thread", out)

    def test_escaped_quote_in_string(self) -> None:
        out = pasjoin_lint.strip_comments_and_strings(
            'auto s = "a\\"b std::mutex"; int live;\n')
        self.assertNotIn("std::mutex", out)
        self.assertIn("int live;", out)


class SuppressedTest(unittest.TestCase):
    def test_single_and_multi_rule(self) -> None:
        line = "x; // pasjoin-lint: allow(layering, sync-discipline)"
        self.assertTrue(pasjoin_lint.suppressed(line, "layering"))
        self.assertTrue(pasjoin_lint.suppressed(line, "sync-discipline"))
        self.assertFalse(pasjoin_lint.suppressed(line, "rng-discipline"))

    def test_no_suppression(self) -> None:
        self.assertFalse(pasjoin_lint.suppressed("plain code;", "layering"))


class SyncDisciplineTest(LintFixture):
    def check(self, files) -> list:
        def in_sync_layer(f: Path) -> bool:
            return f.parent.name == "common" and f.name in ("sync.h",
                                                            "sync.cc")
        return pasjoin_lint.check_token_rule(
            files, "sync-discipline", pasjoin_lint.SYNC_TOKEN_RE,
            allowed=in_sync_layer, message="raw locking",
            extra_line_re=pasjoin_lint.SYNC_HEADER_RE)

    def test_raw_mutex_outside_sync_flags(self) -> None:
        f = self.write("exec/bad.cc", "std::mutex mu;\n")
        vs = self.check([f])
        self.assertEqual(self.rules_of(vs), ["sync-discipline"])
        self.assertEqual(vs[0].line, 1)

    def test_lock_guard_and_condvar_flag(self) -> None:
        f = self.write(
            "obs/bad.cc",
            "std::lock_guard<std::mutex> l(mu);\nstd::condition_variable cv;\n")
        self.assertEqual(len(self.check([f])), 2)  # one per offending line

    def test_mutex_header_include_flags(self) -> None:
        f = self.write("grid/bad.cc", "#include <mutex>\n")
        self.assertEqual(self.rules_of(self.check([f])), ["sync-discipline"])

    def test_sync_layer_is_exempt(self) -> None:
        f = self.write("common/sync.h",
                       "#include <mutex>\nstd::mutex mu_;\n")
        g = self.write("common/sync.cc", "std::condition_variable cv;\n")
        self.assertEqual(self.check([f, g]), [])

    def test_suppression_honored(self) -> None:
        f = self.write(
            "exec/ok.cc",
            "std::mutex mu;  // pasjoin-lint: allow(sync-discipline)\n")
        self.assertEqual(self.check([f]), [])

    def test_comment_mention_not_flagged(self) -> None:
        f = self.write("exec/ok.cc", "// replaces a bare std::mutex\nint x;\n")
        self.assertEqual(self.check([f]), [])


class GuardedByTest(LintFixture):
    def test_unguarded_mutex_member_flags(self) -> None:
        f = self.write("exec/pool.h", "class P {\n  Mutex mu_;\n  int n_;\n};\n")
        vs = pasjoin_lint.check_guarded_by([f])
        self.assertEqual(self.rules_of(vs), ["sync-guarded-by"])
        self.assertIn("mu_", vs[0].message)

    def test_guarded_mutex_member_passes(self) -> None:
        f = self.write(
            "exec/pool.h",
            "class P {\n  Mutex mu_;\n  int n_ PASJOIN_GUARDED_BY(mu_);\n};\n")
        self.assertEqual(pasjoin_lint.check_guarded_by([f]), [])

    def test_pt_guarded_by_counts(self) -> None:
        f = self.write(
            "exec/pool.h",
            "class P {\n  mutable Mutex mu{\"P::mu\", 3};\n"
            "  int* p PASJOIN_PT_GUARDED_BY(mu);\n};\n")
        self.assertEqual(pasjoin_lint.check_guarded_by([f]), [])

    def test_braced_init_member_detected(self) -> None:
        f = self.write("obs/r.h",
                       "class R {\n  Mutex mu_{\"R::mu_\", 600};\n};\n")
        self.assertEqual(self.rules_of(pasjoin_lint.check_guarded_by([f])),
                         ["sync-guarded-by"])

    def test_sync_layer_itself_exempt(self) -> None:
        f = self.write("common/sync.h", "class Mutex {\n};\nMutex helper;\n")
        self.assertEqual(pasjoin_lint.check_guarded_by([f]), [])

    def test_suppression_honored(self) -> None:
        f = self.write(
            "exec/pool.h",
            "class P {\n  Mutex mu_;  // pasjoin-lint: allow(sync-guarded-by)\n};\n")
        self.assertEqual(pasjoin_lint.check_guarded_by([f]), [])


class UnknownSuppressionTest(LintFixture):
    def test_unknown_rule_flags(self) -> None:
        f = self.write("exec/a.cc",
                       "int x;  // pasjoin-lint: allow(not-a-rule)\n")
        vs = pasjoin_lint.check_suppressions([f])
        self.assertEqual(self.rules_of(vs), ["unknown-suppression"])
        self.assertIn("not-a-rule", vs[0].message)

    def test_known_rules_pass(self) -> None:
        f = self.write(
            "exec/a.cc",
            "int x;  // pasjoin-lint: allow(layering, sync-discipline)\n")
        self.assertEqual(pasjoin_lint.check_suppressions([f]), [])

    def test_mixed_list_flags_only_unknown(self) -> None:
        f = self.write(
            "exec/a.cc",
            "int x;  // pasjoin-lint: allow(layering, zzz-bogus)\n")
        vs = pasjoin_lint.check_suppressions([f])
        self.assertEqual(len(vs), 1)
        self.assertIn("zzz-bogus", vs[0].message)

    def test_every_emitted_rule_is_known(self) -> None:
        # Guards the KNOWN_RULES set against drifting from the rules the
        # linter actually emits (grep the source for Violation constructors
        # and check_token_rule call sites by running main on a clean tree).
        for rule in ("sync-discipline", "sync-guarded-by", "no-naked-thread",
                     "rng-discipline", "nodiscard-status",
                     "no-function-hotpath", "layering", "self-contained",
                     "umbrella-reachability", "no-include-cycles",
                     "no-uninterruptible-sleep", "no-node-hash-hotpath",
                     "job-metrics-table"):
            self.assertIn(rule, pasjoin_lint.KNOWN_RULES)


class NakedThreadScopeTest(LintFixture):
    def check(self, files) -> list:
        def in_sync_layer(f: Path) -> bool:
            return f.parent.name == "common" and f.name in ("sync.h",
                                                            "sync.cc")
        return pasjoin_lint.check_token_rule(
            files, "no-naked-thread", pasjoin_lint.THREAD_TOKEN_RE,
            allowed=lambda f: f.relative_to(pasjoin_lint.SRC).parts[0]
            == "exec" or in_sync_layer(f),
            message="threading confined")

    def test_condvar_allowed_in_sync_layer(self) -> None:
        f = self.write("common/sync.h", "std::condition_variable cv_;\n")
        self.assertEqual(self.check([f]), [])

    def test_thread_outside_exec_flags(self) -> None:
        f = self.write("grid/bad.h", "std::thread t;\n")
        self.assertEqual(self.rules_of(self.check([f])), ["no-naked-thread"])

    def test_exec_allowed(self) -> None:
        f = self.write("exec/pool.cc", "std::thread t;\n")
        self.assertEqual(self.check([f]), [])


class UninterruptibleSleepTest(LintFixture):
    """The no-uninterruptible-sleep rule: banned in src/exec, always."""

    def check(self, files) -> list:
        return pasjoin_lint.check_token_rule(
            [f for f in files
             if f.relative_to(pasjoin_lint.SRC).parts[0] == "exec"],
            "no-uninterruptible-sleep", pasjoin_lint.SLEEP_TOKEN_RE,
            allowed=lambda f: False,
            message="uninterruptible sleeps are banned")

    def test_sleep_for_in_exec_flags(self) -> None:
        f = self.write(
            "exec/bad.cc",
            "std::this_thread::sleep_for(std::chrono::seconds(1));\n")
        self.assertEqual(self.rules_of(self.check([f])),
                         ["no-uninterruptible-sleep"])

    def test_sleep_until_and_usleep_flag(self) -> None:
        f = self.write("exec/bad2.cc",
                       "std::this_thread::sleep_until(t);\nusleep(100);\n")
        self.assertEqual(self.rules_of(self.check([f])),
                         ["no-uninterruptible-sleep",
                          "no-uninterruptible-sleep"])

    def test_interruptible_wait_passes(self) -> None:
        f = self.write("exec/ok.cc",
                       "token.WaitForCancellation(0.25);\n"
                       "cv_.WaitFor(lock, 0.005);\n")
        self.assertEqual(self.check([f]), [])

    def test_outside_exec_not_this_rules_business(self) -> None:
        # sleep_for outside src/exec is no-naked-thread territory; this
        # rule's file filter must exclude it.
        f = self.write(
            "grid/elsewhere.cc",
            "std::this_thread::sleep_for(std::chrono::seconds(1));\n")
        self.assertEqual(self.check([f]), [])

    def test_suppression_honored(self) -> None:
        f = self.write(
            "exec/suppressed.cc",
            "usleep(1);  // pasjoin-lint: allow(no-uninterruptible-sleep)\n")
        self.assertEqual(self.check([f]), [])


class NodeHashHotpathTest(LintFixture):
    """The no-node-hash-hotpath rule: engine, shuffle and spatial only."""

    def check(self, files) -> list[str]:
        return self.rules_of(pasjoin_lint.check_node_hash(files))

    def test_unordered_map_in_shuffle_flags(self) -> None:
        f = self.write("exec/shuffle.cc",
                       "std::unordered_map<int, int> slot_of;\n")
        self.assertEqual(self.check([f]), ["no-node-hash-hotpath"])

    def test_headers_and_sets_flag_in_engine_and_spatial(self) -> None:
        engine = self.write("exec/engine.h", "#include <unordered_set>\n")
        spatial = self.write(
            "spatial/sub/kernel.h",
            "#include <unordered_map>\nstd::unordered_multiset<int> s;\n")
        self.assertEqual(self.check([engine, spatial]),
                         ["no-node-hash-hotpath"] * 3)

    def test_fault_injector_and_other_layers_pass(self) -> None:
        injector = self.write("exec/fault_injector.h",
                              "#include <unordered_set>\n"
                              "std::unordered_set<uint64_t> targeted_;\n")
        core = self.write("core/driver.cc", "std::unordered_map<int, int> m;\n")
        self.assertEqual(self.check([injector, core]), [])

    def test_flat_table_and_comment_mention_pass(self) -> None:
        f = self.write("exec/shuffle.h",
                       "// was a std::unordered_map\n"
                       "std::vector<Entry> table;\n")
        self.assertEqual(self.check([f]), [])

    def test_suppression_honored(self) -> None:
        f = self.write(
            "spatial/ok.cc",
            "std::unordered_set<int> s;  "
            "// pasjoin-lint: allow(no-node-hash-hotpath)\n")
        self.assertEqual(self.check([f]), [])


class JobMetricsTableTest(LintFixture):
    HEADER = """struct JobMetrics {
  std::string algorithm;
  uint64_t results = 0;
  uint64_t candidates = 0;  // the candidates counter
  double join_seconds = 0.0;
  int workers = 0;
  std::vector<double> worker_busy_join;
  double TotalSeconds() const {
    double total = join_seconds;
    return total;
  }
};

inline constexpr CounterField kCounterFields[] = {
    {"results", &JobMetrics::results, CounterKind::kResult},
%s};
inline constexpr GaugeField kGaugeFields[] = {
    {"join_seconds", &JobMetrics::join_seconds},
};
"""
    SOURCE = """void PublishMetrics(const JobMetrics& metrics, TraceExport* out) {
  out->counters.emplace_back("workers", metrics.workers);
  gauge("total_seconds", metrics.TotalSeconds());
}
"""
    CANDIDATES_ROW = (
        '    {"candidates", &JobMetrics::candidates, CounterKind::kResult},\n')

    def test_complete_struct_passes(self) -> None:
        self.write("exec/metrics.h", self.HEADER % self.CANDIDATES_ROW)
        self.write("exec/metrics.cc", self.SOURCE)
        self.assertEqual(pasjoin_lint.check_job_metrics_table(), [])

    def test_member_missing_its_row_flags(self) -> None:
        self.write("exec/metrics.h", self.HEADER % "")
        self.write("exec/metrics.cc", self.SOURCE)
        vs = pasjoin_lint.check_job_metrics_table()
        self.assertEqual(self.rules_of(vs), ["job-metrics-table"])
        self.assertIn("JobMetrics::candidates", vs[0].message)
        self.assertEqual(vs[0].line, 4)

    def test_explicit_line_outside_publish_metrics_does_not_count(
            self) -> None:
        self.write("exec/metrics.h", self.HEADER % self.CANDIDATES_ROW)
        self.write("exec/metrics.cc", self.SOURCE.replace(
            "metrics.workers", "0") + "int W(const JobMetrics& metrics) "
            "{\n  return metrics.workers;\n}\n")
        vs = pasjoin_lint.check_job_metrics_table()
        self.assertEqual(self.rules_of(vs), ["job-metrics-table"])
        self.assertIn("JobMetrics::workers", vs[0].message)


class LayeringTest(LintFixture):
    def test_lower_layer_including_higher_flags(self) -> None:
        self.write("exec/engine.h", "#pragma once\n")
        f = self.write("common/bad.h", '#include "exec/engine.h"\n')
        vs = pasjoin_lint.check_layering([f])
        self.assertEqual(self.rules_of(vs), ["layering"])

    def test_higher_including_lower_passes(self) -> None:
        self.write("common/status.h", "#pragma once\n")
        f = self.write("exec/ok.h", '#include "common/status.h"\n')
        self.assertEqual(pasjoin_lint.check_layering([f]), [])


if __name__ == "__main__":
    unittest.main()
