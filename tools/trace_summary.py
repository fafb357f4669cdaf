#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""trace_summary: per-phase/per-worker rollup of a pasjoin execution trace.

The engine's TraceRecorder (src/obs/trace_recorder.h) exports Chrome
trace-event JSON: one "thread" timeline per logical worker plus one for the
driver, task spans named <phase>-task (map-task, fill-task, regroup-task,
join-task, dedup-scatter-task, dedup-merge-task), per-partition
join-partition spans,
kernel-sort/kernel-sweep/kernel-emit spans, fault-* events, cancellation
events (cat "cancel": cancel-abandon, watchdog-fire, deadline-exceeded), and
the job's counters/gauges under the top-level pasjoin_counters /
pasjoin_gauges keys.

This tool prints a human-readable rollup:

  * per task-span name: task count, summed busy seconds, busiest worker,
    and the makespan (max per-worker busy) — the quantity the engine's
    simulated phase seconds are built from;
  * per worker: busy seconds per phase;
  * the job counters and gauges embedded in the trace;
  * the driver time no driver-* span covers, when the trace has the
    driver_seconds gauge;
  * fault events, when any.

With --validate it also cross-checks the trace against the metrics the job
reported (exit 1 on violation). A trace with no exported metrics (a failed
or cancelled run) fails, and so does an export that lacks a key one of the
checks below needs; only the driver_seconds gauge is optional, because a
trace of the engine alone has none. The checks:

  * construction_seconds ~= driver_seconds gauge + map makespan + fill
    makespan + regroup makespan, join_seconds ~= join makespan,
    dedup_seconds ~= scatter makespan + merge makespan — each within
    --tolerance (default 5%, plus a small absolute slack for
    sub-millisecond phases);
  * the measured_* gauges (real wall time of each phase group under the
    work-stealing execution, docs/PARALLELISM.md) vs the driver-track
    phase spans: measured_construction_seconds ~= driver_seconds +
    phase-map + phase-fill + phase-regroup, measured_join_seconds ~=
    phase-join,
    measured_dedup_seconds ~= phase-dedup-scatter + phase-dedup-merge;
  * the driver spans (driver-scan, driver-grid, driver-sample, ...; they do
    not nest) vs the driver_seconds gauge: the spans lie inside the driver
    time, so their sum may not exceed it beyond the tolerance;
  * the measured_planning_seconds gauge (wall time of the driver-side
    planning pipeline, docs/PARALLELISM.md section 8) vs the sum of the
    planning spans (planning-pairs, planning-subgraphs, planning-marking,
    planning-costs, planning-lpt);
  * kernel gauge sums (sort/sweep/emit) vs the kernel span sums, when the
    run reported a kernel breakdown;
  * the candidates counter vs the sum of join-partition span args (exact;
    skipped when fault or cancellation events are present, because losing
    and abandoned attempts also record partition spans);
  * the joinable_tuples counter vs the sum of the committed regroup-task
    spans' kept args (exact; skipped when cancellation events are present);
  * the shuffle_block_bytes counter vs the sum of the committed fill-task
    spans' bytes args (exact; skipped when cancellation events are present);
  * the joinable_tuples counter vs the sum of the committed fill-task
    spans' instances args: the fill ships only joinable instances (exact;
    skipped when cancellation events are present);
  * the watchdog_fires counter vs the number of watchdog-fire events
    (exact — each fire records exactly one instant);
  * no dropped events.

Only committed task spans (args.committed != 0; spans without the arg count
as committed) enter the busy sums — failed and losing speculative attempts
of the fault-tolerant path are excluded, mirroring the engine, which charges
only a task's committed attempt to its worker's busy time.

Usage:
  tools/trace_summary.py trace.json
  tools/trace_summary.py trace.json --validate [--tolerance 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

TASK_SPANS = (
    "map-task",
    "fill-task",
    "regroup-task",
    "join-task",
    "dedup-scatter-task",
    "dedup-merge-task",
)
KERNEL_SPANS = ("kernel-sort", "kernel-sweep", "kernel-emit")
# The exported keys the --validate checks read. Every successful run
# exports all of them (exec::PublishMetrics).
REQUIRED_COUNTERS = (
    "candidates",
    "partitions_joined",
    "joinable_tuples",
    "shuffle_block_bytes",
    "watchdog_fires",
)
REQUIRED_GAUGES = (
    "construction_seconds",
    "join_seconds",
    "dedup_seconds",
    "measured_construction_seconds",
    "measured_join_seconds",
    "measured_dedup_seconds",
    "measured_planning_seconds",
    "kernel_sort_seconds",
    "kernel_sweep_seconds",
    "kernel_emit_seconds",
)
# Spans of the driver-side planning pipeline (core/planning.h). They do not
# nest, so their sum is the planning wall time.
PLANNING_SPANS = (
    "planning-pairs",
    "planning-subgraphs",
    "planning-marking",
    "planning-costs",
    "planning-lpt",
)


# Spans of the driver's construction steps (core/driver.h) share this
# prefix. They do not nest, so their sum is the covered driver time.
DRIVER_SPAN_PREFIX = "driver-"


def load_trace(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def is_committed(event) -> bool:
    return event.get("args", {}).get("committed", 1) != 0


class Rollup:
    """Aggregates a trace's events into per-phase/per-worker sums."""

    def __init__(self, trace):
        self.track_names = {}  # tid -> thread_name
        # name -> tid -> [count, busy_seconds]
        self.spans = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.fault_events = []
        self.cancel_events = []
        self.join_partitions = 0
        self.span_candidates = 0
        self.regroup_kept = None  # no committed regroup span has the arg
        self.fill_bytes = None  # no committed fill span has the arg
        self.fill_instances = None  # no committed fill span has the arg
        events = trace.get("traceEvents", [])
        if not isinstance(events, list):
            raise ValueError("traceEvents must be an array")
        for event in events:
            ph = event.get("ph")
            if ph == "M":
                if event.get("name") == "thread_name":
                    self.track_names[event.get("tid")] = event["args"]["name"]
                continue
            if event.get("cat") == "fault":
                self.fault_events.append(event)
                continue
            if event.get("cat") == "cancel":
                self.cancel_events.append(event)
                continue
            if ph != "X":
                continue
            name = event.get("name", "?")
            tid = event.get("tid", 0)
            seconds = float(event.get("dur", 0.0)) / 1e6
            if name in TASK_SPANS and not is_committed(event):
                continue
            cell = self.spans[name][tid]
            cell[0] += 1
            cell[1] += seconds
            kept = event.get("args", {}).get("kept")
            if name == "regroup-task" and kept is not None:
                self.regroup_kept = (self.regroup_kept or 0) + kept
            if name == "fill-task":
                self.add_fill(event.get("args", {}))
            if name == "join-partition":
                self.join_partitions += 1
                self.span_candidates += event.get("args", {}).get(
                    "candidates", 0
                )

    def add_fill(self, args) -> None:
        if args.get("bytes") is not None:
            self.fill_bytes = (self.fill_bytes or 0) + args["bytes"]
        if args.get("instances") is not None:
            self.fill_instances = (
                self.fill_instances or 0
            ) + args["instances"]

    def track_name(self, tid) -> str:
        return self.track_names.get(tid, f"tid {tid}")

    def makespan(self, name: str) -> float:
        per_track = self.spans.get(name, {})
        return max((busy for _, busy in per_track.values()), default=0.0)

    def total(self, name: str) -> float:
        return sum(busy for _, busy in self.spans.get(name, {}).values())

    def count(self, name: str) -> int:
        return sum(count for count, _ in self.spans.get(name, {}).values())

    def driver_spans_total(self) -> float:
        return sum(
            self.total(name)
            for name in self.spans
            if name.startswith(DRIVER_SPAN_PREFIX)
        )


def print_rollup(rollup: Rollup, trace) -> None:
    print("== per-phase task spans ==")
    print(f"{'span':<20} {'tasks':>6} {'busy':>10} {'makespan':>10}  busiest")
    for name in TASK_SPANS:
        if name not in rollup.spans:
            continue
        per_track = rollup.spans[name]
        busiest_tid, (_, busiest) = max(
            per_track.items(), key=lambda kv: kv[1][1]
        )
        print(
            f"{name:<20} {rollup.count(name):>6} {rollup.total(name):>9.4f}s "
            f"{rollup.makespan(name):>9.4f}s  {rollup.track_name(busiest_tid)}"
            f" ({busiest:.4f}s)"
        )
    other = sorted(
        n
        for n in rollup.spans
        if n not in TASK_SPANS and n != "join-partition"
    )
    if other:
        print("\n== other spans ==")
        for name in other:
            print(
                f"{name:<20} {rollup.count(name):>6} "
                f"{rollup.total(name):>9.4f}s"
            )
    if rollup.join_partitions:
        print(
            f"\njoin-partition spans: {rollup.join_partitions} "
            f"(candidates arg sum: {rollup.span_candidates})"
        )

    print("\n== per-worker busy seconds ==")
    tids = sorted(
        {tid for spans in rollup.spans.values() for tid in spans}
    )
    for tid in tids:
        parts = []
        for name in TASK_SPANS:
            busy = rollup.spans.get(name, {}).get(tid)
            if busy is not None:
                parts.append(f"{name}={busy[1]:.4f}s")
        if parts:
            print(f"{rollup.track_name(tid):<12} {' '.join(parts)}")

    counters = trace.get("pasjoin_counters", {})
    gauges = trace.get("pasjoin_gauges", {})
    if counters:
        print("\n== counters ==")
        for key in sorted(counters):
            print(f"{key:<24} {counters[key]}")
    if gauges:
        print("\n== gauges ==")
        for key in sorted(gauges):
            print(f"{key:<24} {gauges[key]:.6f}")
    driver_seconds = gauges.get("driver_seconds")
    if driver_seconds:
        uncovered = driver_seconds - rollup.driver_spans_total()
        print(
            f"\ndriver time outside driver-* spans: {uncovered:.6f}s of "
            f"{driver_seconds:.6f}s ({uncovered / driver_seconds:.1%})"
        )
    if rollup.fault_events:
        print(f"\n== fault events ({len(rollup.fault_events)}) ==")
        by_name = defaultdict(int)
        for event in rollup.fault_events:
            by_name[event.get("name", "?")] += 1
        for name in sorted(by_name):
            print(f"{name:<24} {by_name[name]}")
    if rollup.cancel_events:
        print(f"\n== cancellation events ({len(rollup.cancel_events)}) ==")
        by_name = defaultdict(int)
        for event in rollup.cancel_events:
            by_name[event.get("name", "?")] += 1
        for name in sorted(by_name):
            print(f"{name:<24} {by_name[name]}")
    dropped = trace.get("pasjoin_dropped_events", 0)
    if dropped:
        print(f"\nWARNING: {dropped} events dropped (shard capacity)")


def validate(rollup: Rollup, trace, tolerance: float, slack: float) -> list:
    """Cross-checks span sums against the job's reported metrics."""
    errors = []
    gauges = trace.get("pasjoin_gauges", {})
    counters = trace.get("pasjoin_counters", {})

    def check(label, expected, actual):
        if abs(actual - expected) > max(tolerance * expected, slack):
            errors.append(
                f"{label}: span-derived {actual:.4f}s vs reported "
                f"{expected:.4f}s (tolerance {tolerance:.0%} + {slack}s)"
            )

    if not counters:
        return ["no job metrics exported: failed or cancelled run?"]
    missing = [k for k in REQUIRED_COUNTERS if k not in counters] + [
        k for k in REQUIRED_GAUGES if k not in gauges
    ]
    if missing:
        return [f"exported metrics lack {', '.join(missing)}"]

    driver_seconds = gauges.get("driver_seconds", 0.0)
    check(
        "construction_seconds",
        gauges["construction_seconds"],
        driver_seconds
        + rollup.makespan("map-task")
        + rollup.makespan("fill-task")
        + rollup.makespan("regroup-task"),
    )
    check("join_seconds", gauges["join_seconds"], rollup.makespan("join-task"))
    check(
        "dedup_seconds",
        gauges["dedup_seconds"],
        rollup.makespan("dedup-scatter-task")
        + rollup.makespan("dedup-merge-task"),
    )

    # Measured (physical) phase times: each phase's wall time is the single
    # driver-track "phase-*" span enclosing it, so the gauge must match the
    # span total. Construction additionally includes the sequential driver
    # time, exactly like the simulated construction gauge.
    check(
        "measured_construction_seconds",
        gauges["measured_construction_seconds"],
        driver_seconds
        + rollup.total("phase-map")
        + rollup.total("phase-fill")
        + rollup.total("phase-regroup"),
    )
    check(
        "measured_join_seconds",
        gauges["measured_join_seconds"],
        rollup.total("phase-join"),
    )
    check(
        "measured_dedup_seconds",
        gauges["measured_dedup_seconds"],
        rollup.total("phase-dedup-scatter")
        + rollup.total("phase-dedup-merge"),
    )

    # The driver spans lie inside the driver time; more span time than
    # driver time means a span double counts or the gauge lost a step.
    if "driver_seconds" in gauges:
        covered = rollup.driver_spans_total()
        if covered > driver_seconds + max(tolerance * driver_seconds, slack):
            errors.append(
                f"driver_seconds: driver-* spans sum to {covered:.4f}s, "
                f"more than the reported {driver_seconds:.4f}s"
            )

    # Driver-side planning: the measured_planning_seconds gauge is the
    # driver's wall clock around the planning pipeline, whose stages are
    # exactly the top-level planning spans (all on the driver track, so
    # their totals add up to wall time).
    if gauges["measured_planning_seconds"] > 0.0:
        derived = sum(rollup.total(name) for name in PLANNING_SPANS)
        check(
            "measured_planning_seconds",
            gauges["measured_planning_seconds"],
            derived,
        )

    # Kernel phase attribution: span sums vs the job's kernel gauges. The
    # engine folds caller-side batch post-processing (the self-join filter)
    # into emit_seconds, which has no kernel span, so emit is checked as a
    # lower bound only.
    if gauges["kernel_sort_seconds"] > 0.0:
        check(
            "kernel_sort_seconds",
            gauges["kernel_sort_seconds"],
            rollup.total("kernel-sort"),
        )
        check(
            "kernel_sweep_seconds",
            gauges["kernel_sweep_seconds"],
            rollup.total("kernel-sweep"),
        )
        emit_spans = rollup.total("kernel-emit")
        if emit_spans > gauges["kernel_emit_seconds"] + max(
            tolerance * gauges["kernel_emit_seconds"], slack
        ):
            errors.append(
                f"kernel_emit_seconds: span sum {emit_spans:.4f}s exceeds "
                f"reported {gauges['kernel_emit_seconds']:.4f}s"
            )

    if (
        not rollup.fault_events
        and not rollup.cancel_events
        and rollup.join_partitions
    ):
        if rollup.span_candidates != counters["candidates"]:
            errors.append(
                f"candidates: join-partition span args sum to "
                f"{rollup.span_candidates}, counters report "
                f"{counters['candidates']}"
            )
    if (
        not rollup.fault_events
        and not rollup.cancel_events
        and rollup.join_partitions
        and rollup.join_partitions != counters["partitions_joined"]
    ):
        errors.append(
            f"partitions_joined: {rollup.join_partitions} join-partition "
            f"spans, counters report {counters['partitions_joined']}"
        )

    if (
        not rollup.cancel_events
        and rollup.regroup_kept is not None
        and rollup.regroup_kept != counters["joinable_tuples"]
    ):
        errors.append(
            f"joinable_tuples: regroup-task kept args sum to "
            f"{rollup.regroup_kept}, counters report "
            f"{counters['joinable_tuples']}"
        )

    if (
        not rollup.cancel_events
        and rollup.fill_bytes is not None
        and rollup.fill_bytes != counters["shuffle_block_bytes"]
    ):
        errors.append(
            f"shuffle_block_bytes: fill-task bytes args sum to "
            f"{rollup.fill_bytes}, counters report "
            f"{counters['shuffle_block_bytes']}"
        )

    # The fill ships only the instances of partitions both sides reach,
    # which are exactly the ones regroup keeps.
    if (
        not rollup.cancel_events
        and rollup.fill_instances is not None
        and rollup.fill_instances != counters["joinable_tuples"]
    ):
        errors.append(
            f"joinable_tuples: fill-task instances args sum to "
            f"{rollup.fill_instances}, counters report "
            f"{counters['joinable_tuples']}"
        )

    # Watchdog bookkeeping is exact: the engine records one "watchdog-fire"
    # instant per watchdog cancellation and counts the same fires.
    fires = sum(
        1
        for event in rollup.cancel_events
        if event.get("name") == "watchdog-fire"
    )
    if counters["watchdog_fires"] != fires:
        errors.append(
            f"watchdog_fires: {fires} watchdog-fire events, counters report "
            f"{counters['watchdog_fires']}"
        )

    dropped = trace.get("pasjoin_dropped_events", 0)
    if dropped:
        errors.append(f"{dropped} events were dropped (shard capacity)")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="cross-check span sums against the embedded job metrics",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative tolerance for the phase-seconds checks (default 0.05)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.005,
        help="absolute seconds slack for sub-millisecond phases "
        "(default 0.005)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rollup; print validation results only",
    )
    args = parser.parse_args()

    try:
        trace = load_trace(args.trace)
        rollup = Rollup(trace)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"trace_summary: cannot load {args.trace}: {e}",
              file=sys.stderr)
        return 1

    if not args.quiet:
        print_rollup(rollup, trace)
    if args.validate:
        errors = validate(rollup, trace, args.tolerance, args.slack)
        if errors:
            for message in errors:
                print(f"trace_summary: FAIL: {message}", file=sys.stderr)
            return 1
        print(f"trace_summary: validation OK ({args.trace})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
