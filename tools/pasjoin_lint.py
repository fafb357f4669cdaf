#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""pasjoin_lint: project-invariant linter for rules clang-tidy cannot express.

Enforced invariants (see docs/STATIC_ANALYSIS.md for the rationale and
suppression mechanism):

  umbrella-reachability  Every header under src/ is reachable from the
                         umbrella header src/pasjoin.h (transitively).
  self-contained         Every header under src/ compiles standalone
                         (g++/clang++ -fsyntax-only). Skipped with a notice
                         when no compiler is available.
  no-include-cycles      The #include graph of src/ headers is acyclic.
  layering               Includes respect the layer order documented in
                         src/pasjoin.h: common < obs < datagen < grid <
                         spatial < agreements < exec < extent < core <
                         baselines. Lower layers never include higher ones.
  no-naked-thread        std::thread / std::jthread / std::async /
                         pthread_create, and the blocking/timing primitives
                         of the retry machinery (std::this_thread::sleep_for
                         / sleep_until, std::condition_variable[_any],
                         usleep, nanosleep) appear only under src/exec/ and
                         in src/common/sync.* (the engine owns all
                         threading, retry/backoff timing lives in its
                         fault-tolerance layer, and the annotated sync layer
                         wraps the one condition variable everyone shares).
  no-uninterruptible-sleep
                         Uninterruptible sleeps (std::this_thread::sleep_for
                         / sleep_until, usleep, nanosleep) are banned under
                         src/exec: engine code must wait on an interruptible
                         primitive (CondVar::WaitFor,
                         CancellationToken::WaitForCancellation) so
                         cancellation, deadlines, and shutdown are never
                         blocked behind a raw timer (docs/CANCELLATION.md).
                         Only src/common/sync.* may sleep.
  sync-discipline        Raw standard-library locking (std::mutex and
                         friends, std::lock_guard / unique_lock /
                         scoped_lock / shared_lock, std::condition_variable,
                         and the <mutex> / <shared_mutex> /
                         <condition_variable> headers) appears only in
                         src/common/sync.{h,cc}. Everything else uses the
                         annotated pasjoin::Mutex / MutexLock / CondVar so
                         Clang thread-safety analysis and the lock-rank
                         checker see every acquisition.
  sync-guarded-by        Every pasjoin::Mutex member needs at least one
                         PASJOIN_GUARDED_BY / PASJOIN_PT_GUARDED_BY user
                         naming it in the same file: a mutex protecting
                         nothing the analysis can see is either dead or
                         hiding unannotated shared state.
  rng-discipline         rand()/srand()/std::random_device/std::mt19937/
                         <random> appear only under src/common/rng.* (all
                         randomness flows through the deterministic Rng).
  nodiscard-status       Function declarations in headers returning Status or
                         Result<T> carry [[nodiscard]].
  no-function-hotpath    std::function (and <functional>) must not appear in
                         src/spatial or src/obs headers. The per-partition
                         join kernels are the hot path; a type-erased callback
                         there costs an indirect call per candidate pair (the
                         regression the SoA sweep kernel removed — see
                         sweep_kernel.h). The tracing layer is instrumented
                         *into* that hot path, so its spans carry plain-data
                         args only. Callbacks in these headers are template
                         parameters (zero-cost, inlinable) or batched result
                         buffers.
  no-node-hash-hotpath   std::unordered_map / std::unordered_set (and their
                         headers) must not appear in src/exec/engine.*,
                         src/exec/shuffle.* or src/spatial. Those files touch
                         every shuffled instance or candidate pair; a
                         node-based table there costs an allocation per key
                         and a pointer chase per lookup (the regroup cost a
                         FlatIndex removed). Use common/flat_index.h or a
                         sort.
  job-metrics-table      Every uint64_t, double or int data member of struct
                         JobMetrics (src/exec/metrics.h) has a row in its
                         field table (&JobMetrics::<name>) or an explicit
                         metrics.<name> line in exec::PublishMetrics
                         (src/exec/metrics.cc). The table drives the trace
                         export and every test comparison of counters, so a
                         field without a row is silently dropped from both.

Suppression: append  // pasjoin-lint: allow(<rule>)  to the offending line.
A suppression naming a rule this linter does not know is itself an error
(unknown-suppression): stale allowances must not survive rule renames.

Exit status: 0 when clean, 1 when violations were found, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

LAYERS = {
    "common": 0,
    "obs": 1,
    "datagen": 2,
    "grid": 3,
    "spatial": 4,
    "agreements": 5,
    "exec": 6,
    "extent": 7,
    "core": 8,
    "baselines": 9,
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
SUPPRESS_RE = re.compile(r"//\s*pasjoin-lint:\s*allow\(([a-z\-, ]+)\)")

THREAD_TOKEN_RE = re.compile(
    r"\b(?:std::thread|std::jthread|std::async|pthread_create|"
    r"std::this_thread::sleep_for|std::this_thread::sleep_until|"
    r"std::condition_variable(?:_any)?|usleep\s*\(|nanosleep\s*\()")
SYNC_TOKEN_RE = re.compile(
    r"\b(?:std::(?:timed_|recursive_(?:timed_)?|shared_(?:timed_)?)?mutex|"
    r"std::lock_guard|std::unique_lock|std::scoped_lock|std::shared_lock|"
    r"std::condition_variable(?:_any)?|std::call_once|std::once_flag)\b")
SYNC_HEADER_RE = re.compile(
    r"^\s*#\s*include\s+<(?:mutex|shared_mutex|condition_variable)>")
SLEEP_TOKEN_RE = re.compile(
    r"\b(?:std::this_thread::sleep_for|std::this_thread::sleep_until|"
    r"usleep\s*\(|nanosleep\s*\()")
RNG_TOKEN_RE = re.compile(
    r"\b(?:s?rand\s*\(|std::random_device|std::mt19937(?:_64)?|"
    r"std::minstd_rand0?|std::default_random_engine|drand48\s*\()")
RANDOM_HEADER_RE = re.compile(r'^\s*#\s*include\s+<random>')
STD_FUNCTION_TOKEN_RE = re.compile(r"\bstd::function\b")
FUNCTIONAL_HEADER_RE = re.compile(r'^\s*#\s*include\s+<functional>')
NODE_HASH_TOKEN_RE = re.compile(r"\bstd::unordered_(?:multi)?(?:map|set)\b")
NODE_HASH_HEADER_RE = re.compile(
    r'^\s*#\s*include\s+<unordered_(?:map|set)>')
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?(?:Status|Result<[^;{}()]+>)\s+[A-Z]\w*\s*\(")
MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*[;{]")
JOB_METRICS_STRUCT_RE = re.compile(r"^\s*struct\s+JobMetrics\s*\{")
SCALAR_MEMBER_RE = re.compile(r"^\s*(?:uint64_t|double|int)\s+(\w+)\s*[=;{]")
TABLE_ROW_RE = re.compile(r"&JobMetrics::(\w+)")
EXPLICIT_EXPORT_RE = re.compile(r"\bmetrics\.(\w+)")

# Every rule this linter can emit or honor in an allow(...) suppression.
KNOWN_RULES = frozenset({
    "umbrella-reachability",
    "self-contained",
    "no-include-cycles",
    "layering",
    "no-naked-thread",
    "no-uninterruptible-sleep",
    "sync-discipline",
    "sync-guarded-by",
    "rng-discipline",
    "nodiscard-status",
    "no-function-hotpath",
    "no-node-hash-hotpath",
    "job-metrics-table",
})


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        where = f"{rel}:{self.line}" if self.line else str(rel)
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out //, /* */ comments and string/char literals, keeping line
    structure so reported line numbers stay correct."""
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
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def suppressed(raw_line: str, rule: str) -> bool:
    m = SUPPRESS_RE.search(raw_line)
    if not m:
        return False
    rules = {r.strip() for r in m.group(1).split(",")}
    return rule in rules


def project_includes(path: Path) -> list[tuple[int, Path]]:
    """Quoted includes of `path` resolved against src/ (missing ones skipped:
    the compiler, not the linter, reports those)."""
    found = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = SRC / m.group(1)
        if target.is_file():
            found.append((lineno, target))
    return found


def layer_of(path: Path) -> str | None:
    rel = path.relative_to(SRC)
    if len(rel.parts) < 2:
        return None  # src/pasjoin.h: the umbrella sits above all layers
    return rel.parts[0] if rel.parts[0] in LAYERS else None


def check_umbrella_reachability(headers: list[Path]) -> list[Violation]:
    umbrella = SRC / "pasjoin.h"
    seen: set[Path] = set()
    stack = [umbrella]
    while stack:
        h = stack.pop()
        if h in seen:
            continue
        seen.add(h)
        for _, inc in project_includes(h):
            stack.append(inc)
    return [
        Violation("umbrella-reachability", h, 0,
                  "public header not reachable from src/pasjoin.h")
        for h in headers if h not in seen
    ]


def check_include_cycles(headers: list[Path]) -> list[Violation]:
    graph = {h: [inc for _, inc in project_includes(h) if inc.suffix == ".h"]
             for h in headers}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {h: WHITE for h in graph}
    violations: list[Violation] = []

    def dfs(h: Path, trail: list[Path]) -> None:
        color[h] = GRAY
        trail.append(h)
        for inc in graph.get(h, []):
            if color.get(inc, WHITE) == GRAY:
                cycle = trail[trail.index(inc):] + [inc]
                pretty = " -> ".join(str(p.relative_to(SRC)) for p in cycle)
                violations.append(
                    Violation("no-include-cycles", h, 0,
                              f"#include cycle: {pretty}"))
            elif color.get(inc, WHITE) == WHITE:
                dfs(inc, trail)
        trail.pop()
        color[h] = BLACK

    for h in graph:
        if color[h] == WHITE:
            dfs(h, [])
    return violations


def check_layering(files: list[Path]) -> list[Violation]:
    violations = []
    for f in files:
        src_layer = layer_of(f)
        if src_layer is None:
            continue  # umbrella header: may include everything
        for lineno, inc in project_includes(f):
            dst_layer = layer_of(inc)
            if dst_layer is None:
                continue
            if LAYERS[dst_layer] > LAYERS[src_layer]:
                raw = f.read_text().splitlines()[lineno - 1]
                if suppressed(raw, "layering"):
                    continue
                violations.append(Violation(
                    "layering", f, lineno,
                    f"layer '{src_layer}' must not include higher layer "
                    f"'{dst_layer}' ({inc.relative_to(SRC)})"))
    return violations


def check_token_rule(files: list[Path], rule: str, token_re: re.Pattern,
                     allowed, message: str,
                     extra_line_re: re.Pattern | None = None) -> list[Violation]:
    violations = []
    for f in files:
        if allowed(f):
            continue
        raw_lines = f.read_text().splitlines()
        code_lines = strip_comments_and_strings(f.read_text()).splitlines()
        for lineno, line in enumerate(code_lines, 1):
            hit = token_re.search(line)
            if not hit and extra_line_re is not None:
                hit = extra_line_re.match(line)
            if not hit:
                continue
            if suppressed(raw_lines[lineno - 1], rule):
                continue
            violations.append(Violation(rule, f, lineno, message))
    return violations


def in_node_hash_scope(f: Path) -> bool:
    """True for the files no-node-hash-hotpath covers: src/spatial, and the
    engine and shuffle of src/exec (the fault injector stays off the hot
    path and may keep its set)."""
    parts = f.relative_to(SRC).parts
    return parts[0] == "spatial" or (
        parts[0] == "exec" and f.stem in ("engine", "shuffle"))


def check_node_hash(files: list[Path]) -> list[Violation]:
    return check_token_rule(
        [f for f in files if in_node_hash_scope(f)],
        "no-node-hash-hotpath", NODE_HASH_TOKEN_RE,
        allowed=lambda f: False,
        message="std::unordered_map/set is banned in src/exec/engine.*, "
                "src/exec/shuffle.* and src/spatial (per-instance hot path): "
                "use FlatIndex (common/flat_index.h) or a sort",
        extra_line_re=NODE_HASH_HEADER_RE)


def check_nodiscard(headers: list[Path]) -> list[Violation]:
    violations = []
    for h in headers:
        raw_lines = h.read_text().splitlines()
        code = strip_comments_and_strings(h.read_text()).splitlines()
        for lineno, line in enumerate(code, 1):
            if not NODISCARD_DECL_RE.match(line):
                continue
            prev = code[lineno - 2].strip() if lineno >= 2 else ""
            if "[[nodiscard]]" in line or prev.endswith("[[nodiscard]]"):
                continue
            if suppressed(raw_lines[lineno - 1], "nodiscard-status"):
                continue
            violations.append(Violation(
                "nodiscard-status", h, lineno,
                "function returning Status/Result must be [[nodiscard]]"))
    return violations


def check_guarded_by(files: list[Path]) -> list[Violation]:
    """Every pasjoin::Mutex member must guard something: at least one
    PASJOIN_GUARDED_BY / PASJOIN_PT_GUARDED_BY in the same file names it."""
    violations = []
    for f in files:
        if f.parent.name == "common" and f.name in ("sync.h", "sync.cc"):
            continue
        raw_lines = f.read_text().splitlines()
        code = strip_comments_and_strings(f.read_text())
        code_lines = code.splitlines()
        for lineno, line in enumerate(code_lines, 1):
            m = MUTEX_MEMBER_RE.match(line)
            if not m:
                continue
            name = m.group(1)
            use_re = re.compile(
                r"PASJOIN_(?:PT_)?GUARDED_BY\(\s*" + re.escape(name) +
                r"\s*\)")
            if use_re.search(code):
                continue
            if suppressed(raw_lines[lineno - 1], "sync-guarded-by"):
                continue
            violations.append(Violation(
                "sync-guarded-by", f, lineno,
                f"Mutex member '{name}' has no PASJOIN_GUARDED_BY user in "
                "this file: annotate the state it protects (or delete it)"))
    return violations


def check_job_metrics_table() -> list[Violation]:
    """Every scalar data member of struct JobMetrics has a table row in
    exec/metrics.h or an explicit line in exec::PublishMetrics."""
    header = SRC / "exec" / "metrics.h"
    source = SRC / "exec" / "metrics.cc"
    if not header.is_file():
        return []
    raw_lines = header.read_text().splitlines()
    code = strip_comments_and_strings(header.read_text())
    exported = set(TABLE_ROW_RE.findall(code))
    if source.is_file():
        body = re.search(r"\bvoid\s+PublishMetrics\s*\(.*?^\}",
                         strip_comments_and_strings(source.read_text()),
                         re.S | re.M)
        if body:
            exported |= set(EXPLICIT_EXPORT_RE.findall(body.group(0)))

    violations = []
    depth = 0
    in_struct = False
    for lineno, line in enumerate(code.splitlines(), 1):
        if not in_struct and JOB_METRICS_STRUCT_RE.match(line):
            in_struct = True
        elif in_struct and depth == 1:
            m = SCALAR_MEMBER_RE.match(line)
            if (m and m.group(1) not in exported and
                    not suppressed(raw_lines[lineno - 1],
                                   "job-metrics-table")):
                violations.append(Violation(
                    "job-metrics-table", header, lineno,
                    f"JobMetrics::{m.group(1)} has no field-table row "
                    "(kCounterFields/kGaugeFields) and no explicit line in "
                    "exec::PublishMetrics: the trace export and the tests' "
                    "counter comparisons would miss it"))
        if in_struct:
            depth += line.count("{") - line.count("}")
            if depth == 0:
                break
    return violations


def check_suppressions(files: list[Path]) -> list[Violation]:
    """Rejects allow(...) suppressions naming rules this linter does not
    have: a stale allowance silently stops suppressing after a rule rename
    and then reads as an active exemption that is not one."""
    violations = []
    for f in files:
        for lineno, raw in enumerate(f.read_text().splitlines(), 1):
            m = SUPPRESS_RE.search(raw)
            if not m:
                continue
            for rule in (r.strip() for r in m.group(1).split(",")):
                if rule and rule not in KNOWN_RULES:
                    violations.append(Violation(
                        "unknown-suppression", f, lineno,
                        f"suppression names unknown rule '{rule}' "
                        f"(known: {', '.join(sorted(KNOWN_RULES))})"))
    return violations


def check_self_contained(headers: list[Path], verbose: bool) -> list[Violation]:
    compiler = shutil.which("g++") or shutil.which("clang++")
    if compiler is None:
        print("pasjoin_lint: note: no C++ compiler found; "
              "skipping self-contained header check", file=sys.stderr)
        return []
    violations = []
    for h in headers:
        cmd = [compiler, "-std=c++20", "-fsyntax-only", "-I", str(SRC),
               "-x", "c++", str(h)]
        if verbose:
            print("  " + " ".join(cmd), file=sys.stderr)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()
            detail = first[0] if first else "compilation failed"
            violations.append(Violation(
                "self-contained", h, 0,
                f"header does not compile standalone: {detail}"))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--skip-compile", action="store_true",
                        help="skip the (slower) self-contained header check")
    parser.add_argument("--verbose", action="store_true",
                        help="print the compile commands being run")
    args = parser.parse_args()

    if not SRC.is_dir():
        print(f"pasjoin_lint: src/ not found under {REPO_ROOT}",
              file=sys.stderr)
        return 2

    headers = sorted(p for p in SRC.rglob("*.h"))
    sources = sorted(p for p in SRC.rglob("*.cc"))
    files = headers + sources

    violations: list[Violation] = []
    violations += check_umbrella_reachability(headers)
    violations += check_include_cycles(headers)
    violations += check_layering(files)
    def in_sync_layer(f: Path) -> bool:
        return f.parent.name == "common" and f.name in ("sync.h", "sync.cc")

    violations += check_token_rule(
        files, "no-naked-thread", THREAD_TOKEN_RE,
        allowed=lambda f: f.relative_to(SRC).parts[0] == "exec"
        or in_sync_layer(f),
        message="threading/sleep/condition-variable primitives are confined "
                "to src/exec and src/common/sync.* (use exec::ThreadPool; "
                "retry/backoff timing lives in the engine's fault-tolerance "
                "layer)")
    violations += check_token_rule(
        [f for f in files if f.relative_to(SRC).parts[0] == "exec"],
        "no-uninterruptible-sleep", SLEEP_TOKEN_RE,
        allowed=lambda f: False,
        message="uninterruptible sleeps are banned in src/exec: wait on "
                "CondVar::WaitFor or CancellationToken::WaitForCancellation "
                "so cancellation/deadlines/shutdown can interrupt the wait "
                "(docs/CANCELLATION.md)")
    violations += check_token_rule(
        files, "sync-discipline", SYNC_TOKEN_RE,
        allowed=in_sync_layer,
        message="raw standard-library locking is confined to "
                "src/common/sync.{h,cc}: use pasjoin::Mutex / MutexLock / "
                "CondVar so thread-safety analysis and the lock-rank "
                "checker see the acquisition",
        extra_line_re=SYNC_HEADER_RE)
    violations += check_guarded_by(files)
    violations += check_suppressions(files)
    violations += check_token_rule(
        files, "rng-discipline", RNG_TOKEN_RE,
        allowed=lambda f: f.name in ("rng.h", "rng.cc")
        and f.parent.name == "common",
        message="nondeterministic/libc randomness is confined to "
                "src/common/rng (use pasjoin::Rng)",
        extra_line_re=RANDOM_HEADER_RE)
    violations += check_token_rule(
        [h for h in headers
         if h.relative_to(SRC).parts[0] in ("spatial", "obs")],
        "no-function-hotpath", STD_FUNCTION_TOKEN_RE,
        allowed=lambda f: False,
        message="std::function is banned in src/spatial and src/obs headers "
                "(hot path): take callbacks as template parameters or emit "
                "into batched result buffers (see spatial/sweep_kernel.h); "
                "trace spans carry plain-data args (see obs/trace_recorder.h)",
        extra_line_re=FUNCTIONAL_HEADER_RE)
    violations += check_node_hash(files)
    violations += check_job_metrics_table()
    violations += check_nodiscard(headers)
    if not args.skip_compile:
        violations += check_self_contained(headers, args.verbose)

    for v in sorted(violations, key=str):
        print(v)
    if violations:
        print(f"pasjoin_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    checked = len(files)
    print(f"pasjoin_lint: OK ({checked} files, "
          f"{len(headers)} headers checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
