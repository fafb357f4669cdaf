#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""Unit tests for tools/src_loc.py (run by ctest as src_loc_test)."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import shutil
import subprocess
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "src_loc", os.path.join(_HERE, "src_loc.py")
)
src_loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_loc)

SAMPLE = """\
// Copyright line.

#include <vector>  // trailing comment: still code
/* one-line block */
/* block
   spanning
   lines */ int after_block = 0;
const char* url = "http://example.com";  // "//" in a string is code
char slash = '/';
   /// doc comment
int x = 1; /* inline */ int y = 2;
/* a */ /* b */
"""


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class CountTest(unittest.TestCase):
    def test_blank_and_comment_only_lines_are_not_code(self):
        # Code lines: the include, the line closing the block with code
        # after it, the string, the char and the x/y line.
        self.assertEqual(src_loc.count_text(SAMPLE), (12, 5))

    def test_block_comment_state_carries_across_lines(self):
        self.assertEqual(src_loc.code_lines("/*\nint a;\n*/\nint b;\n"), 1)

    def test_escaped_quote_stays_inside_the_string(self):
        self.assertEqual(src_loc.code_lines('s = "\\" // not a comment";\n'),
                         1)
        self.assertEqual(src_loc.code_lines('"a\\"b"; /* open\n*/\n'), 1)

    def test_empty_text(self):
        self.assertEqual(src_loc.count_text(""), (0, 0))


class TreeTest(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.root)

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = src_loc.main(["--root", self.root, *args])
        return rc, out.getvalue()

    def test_only_headers_and_sources_under_src_count(self):
        write(self.root, "src/a/x.h", "int a;\n// c\n")
        write(self.root, "src/b.cc", "\nint b;\n")
        write(self.root, "src/notes.md", "text\n")
        write(self.root, "tests/t.cc", "int t;\n")
        self.assertEqual(src_loc.totals(src_loc.tree_files(self.root)),
                         (2, 4, 2))
        rc, out = self.run_main()
        self.assertEqual(rc, 0)
        self.assertEqual(out.splitlines()[-1].split(),
                         ["working", "tree", "2", "4", "2"])

    def test_missing_src_is_an_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.run_main()[0], 2)

    @unittest.skipUnless(shutil.which("git"), "needs git")
    def test_delta_against_a_revision(self):
        def git(*args):
            subprocess.run(
                ["git", "-C", self.root, "-c", "user.name=t",
                 "-c", "user.email=t@t", *args],
                check=True, capture_output=True)

        write(self.root, "src/a.cc", "int a;\n// gone\nint b;\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "base")
        write(self.root, "src/a.cc", "int a;\n")
        write(self.root, "src/new.h", "int c;\n\n")
        rc, out = self.run_main("--rev", "HEAD")
        self.assertEqual(rc, 0)
        rows = [line.split() for line in out.splitlines()]
        self.assertEqual(rows[1], ["HEAD", "1", "3", "2"])
        self.assertEqual(rows[-1], ["delta", "+1", "+0", "+0"])

    @unittest.skipUnless(shutil.which("git"), "needs git")
    def test_unknown_revision_is_an_error(self):
        write(self.root, "src/a.cc", "int a;\n")
        subprocess.run(["git", "-C", self.root, "init", "-q"], check=True)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.run_main("--rev", "no-such-rev")[0], 2)


if __name__ == "__main__":
    unittest.main()
