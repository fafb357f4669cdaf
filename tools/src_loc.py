#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""src_loc: line counts of the library sources, for the LoC delta of a change.

Counts every src/**/*.h and src/**/*.cc file two ways:

  total  every line;
  code   lines left with something other than whitespace once comments are
         removed, i.e. no blank and no comment-only lines.

Usage:

  tools/src_loc.py                 counts of the working tree
  tools/src_loc.py --rev HEAD~1    the same at a git revision, then the
                                   working tree and the delta between them

It counts the repository it lives in unless --root names another. Plain
stdlib; the --rev mode needs git.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Dict, Iterable, Optional, Tuple

EXTENSIONS = (".h", ".cc")


def code_lines(text: str) -> int:
    """Lines of C++ `text` holding code once // and /* */ comments are gone.

    String and character literals are skipped, so "//" inside them is not a
    comment. Raw string literals are not recognised (src/ has none).
    """
    count = 0
    in_block = False
    for line in text.splitlines():
        has_code = False
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
                continue
            c = line[i]
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if c in "\"'":
                has_code = True
                i += 1
                while i < n and line[i] != c:
                    i += 2 if line[i] == "\\" else 1
                i += 1
                continue
            if not c.isspace():
                has_code = True
            i += 1
        if has_code:
            count += 1
    return count


def count_text(text: str) -> Tuple[int, int]:
    """(total lines, code lines) of one file's text."""
    return len(text.splitlines()), code_lines(text)


def is_source(path: str) -> bool:
    parts = path.replace(os.sep, "/").split("/")
    return parts[0] == "src" and path.endswith(EXTENSIONS)


def tree_files(root: str) -> Dict[str, str]:
    """Source path (relative to `root`) -> text, from the working tree."""
    files = {}
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            if is_source(rel):
                with open(full, encoding="utf-8", errors="replace") as f:
                    files[rel] = f.read()
    return files


def git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args],
        check=True,
        capture_output=True,
        text=True,
        errors="replace",
    ).stdout


def rev_files(root: str, rev: str) -> Dict[str, str]:
    """Source path -> text at git revision `rev`."""
    names = git(root, "ls-tree", "-r", "--name-only", rev, "--", "src")
    return {
        path: git(root, "show", f"{rev}:{path}")
        for path in names.splitlines()
        if is_source(path)
    }


def totals(files: Dict[str, str]) -> Tuple[int, int, int]:
    """(files, total lines, code lines) summed over `files`."""
    total = code = 0
    for text in files.values():
        t, c = count_text(text)
        total += t
        code += c
    return len(files), total, code


def format_row(label: str, row: Iterable, width: int) -> str:
    files, total, code = row
    return f"{label:<{width}} {files:>6} {total:>8} {code:>8}"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision to compare against")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's repository)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"src_loc: no src/ under {args.root}", file=sys.stderr)
        return 2
    width = max(16, len(args.rev or ""))
    print(format_row("src/**/*.{h,cc}", ("files", "total", "code"), width))
    work = totals(tree_files(args.root))
    if args.rev:
        try:
            base = totals(rev_files(args.root, args.rev))
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"src_loc: cannot read revision {args.rev}: {e}",
                  file=sys.stderr)
            return 2
        print(format_row(args.rev, base, width))
        print(format_row("working tree", work, width))
        delta = (f"{w - b:+d}" for w, b in zip(work, base))
        print(format_row("delta", delta, width))
    else:
        print(format_row("working tree", work, width))
    return 0


if __name__ == "__main__":
    sys.exit(main())
