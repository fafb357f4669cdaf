#!/usr/bin/env python3
# Copyright 2026 The pasjoin Authors.
"""Unit tests for trace_summary --validate.

Each test builds a small trace dict by hand: one driver track, one worker
track, the spans of a map (route and fill), a regroup and a join, and the
job's exported metrics. The base trace reconciles; each failing case
breaks one check.
Run directly or through ctest (registered in tests/CMakeLists.txt).
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import trace_summary  # noqa: E402


def span(name, tid, dur_us, **args):
    return {"name": name, "cat": "task", "ph": "X", "pid": 0, "tid": tid,
            "ts": 0.0, "dur": float(dur_us), "args": args}


def fill_span(instances=10, bytes=280, **args):
    """A fill-task span."""
    return span("fill-task", 1, 500, task=0, instances=instances,
                bytes=bytes, **args)


def spans_named(trace, name):
    return [e for e in trace["traceEvents"] if e.get("name") == name]


def passing_trace():
    """A trace whose exported metrics match its spans (times in seconds)."""
    return {
        "traceEvents": [
            {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
             "args": {"name": "driver"}},
            {"ph": "M", "pid": 0, "tid": 1, "name": "thread_name",
             "args": {"name": "worker 0"}},
            span("driver-scan", 0, 4000, tuples=20, sampled_r=1,
                 sampled_s=1),
            span("driver-grid", 0, 1000),
            span("driver-sample", 0, 2000),
            span("phase-map", 0, 1000),
            # The router declares its range [0, 16).
            span("phase-fill", 0, 500, tasks=1, range=16),
            span("phase-regroup", 0, 500),
            span("phase-join", 0, 2000),
            span("map-task", 1, 1000, task=0),
            fill_span(),
            span("regroup-task", 1, 500, task=0, kept=10),
            span("join-task", 1, 2000, task=0),
            span("join-partition", 1, 1500, cell=3, candidates=5, results=3),
            span("kernel-sort", 1, 100),
            span("kernel-sweep", 1, 200),
            span("kernel-emit", 1, 50),
        ],
        "pasjoin_counters": {
            "candidates": 5,
            "results": 3,
            "partitions_joined": 1,
            "joinable_tuples": 10,
            "shuffle_block_bytes": 280,
            "watchdog_fires": 0,
        },
        "pasjoin_gauges": {
            "driver_seconds": 0.01,
            "construction_seconds": 0.012,
            "join_seconds": 0.002,
            "dedup_seconds": 0.0,
            "measured_construction_seconds": 0.012,
            "measured_join_seconds": 0.002,
            "measured_dedup_seconds": 0.0,
            "measured_planning_seconds": 0.0,
            "kernel_sort_seconds": 0.0001,
            "kernel_sweep_seconds": 0.0002,
            "kernel_emit_seconds": 0.00005,
        },
        "pasjoin_dropped_events": 0,
    }


def validate(trace) -> list:
    return trace_summary.validate(
        trace_summary.Rollup(trace), trace, tolerance=0.05, slack=0.005)


class ValidateTest(unittest.TestCase):
    def assert_one_error(self, trace, needle: str) -> None:
        errors = validate(trace)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn(needle, errors[0])

    def test_passing_trace(self) -> None:
        self.assertEqual(validate(passing_trace()), [])

    def test_engine_only_trace_without_driver_seconds_passes(self) -> None:
        trace = passing_trace()
        del trace["pasjoin_gauges"]["driver_seconds"]
        trace["pasjoin_gauges"]["construction_seconds"] = 0.002
        trace["pasjoin_gauges"]["measured_construction_seconds"] = 0.002
        self.assertEqual(validate(trace), [])

    def test_construction_seconds_mismatch_fails(self) -> None:
        trace = passing_trace()
        trace["pasjoin_gauges"]["construction_seconds"] = 1.0
        self.assert_one_error(trace, "construction_seconds")

    def test_driver_spans_beyond_driver_seconds_fail(self) -> None:
        trace = passing_trace()
        # 7 ms of driver spans against a 6 ms driver time: beyond the
        # 5 ms slack only once the spans grow past 11 ms.
        trace["pasjoin_gauges"]["driver_seconds"] = 0.006
        trace["pasjoin_gauges"]["construction_seconds"] = 0.008
        trace["pasjoin_gauges"]["measured_construction_seconds"] = 0.008
        self.assertEqual(validate(trace), [])
        trace["traceEvents"].append(span("driver-placement", 0, 5000))
        self.assert_one_error(trace, "driver-* spans sum to 0.0120s")

    def test_rollup_prints_the_uncovered_driver_time(self) -> None:
        trace = passing_trace()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            trace_summary.print_rollup(trace_summary.Rollup(trace), trace)
        self.assertIn(
            "driver time outside driver-* spans: 0.003000s of 0.010000s "
            "(30.0%)",
            out.getvalue(),
        )

    def test_kept_sum_against_joinable_tuples_fails(self) -> None:
        trace = passing_trace()
        spans_named(trace, "regroup-task")[0]["args"]["kept"] = 11
        self.assert_one_error(trace, "regroup-task kept args sum to 11")

    def test_fill_bytes_sum_against_shuffle_block_bytes_fails(self) -> None:
        trace = passing_trace()
        trace["pasjoin_counters"]["shuffle_block_bytes"] = 281
        self.assert_one_error(trace, "fill-task bytes args sum to 280")

    def test_map_task_bytes_are_not_block_bytes(self) -> None:
        # Route tasks allocate no blocks; only fill tasks report bytes.
        trace = passing_trace()
        spans_named(trace, "map-task")[0]["args"]["bytes"] = 7
        self.assertEqual(validate(trace), [])

    def test_failed_fill_attempts_do_not_count(self) -> None:
        trace = passing_trace()
        trace["traceEvents"].append(fill_span(instances=3, bytes=84,
                                              committed=0))
        self.assertEqual(validate(trace), [])

    def test_fill_makespan_counts_into_construction(self) -> None:
        trace = passing_trace()
        trace["pasjoin_gauges"]["construction_seconds"] = 0.0115
        self.assertEqual(validate(trace), [])  # within the 5 ms slack
        spans_named(trace, "fill-task")[0]["dur"] = 6000.0
        spans_named(trace, "phase-fill")[0]["dur"] = 6000.0
        trace["pasjoin_gauges"]["measured_construction_seconds"] = 0.0175
        self.assert_one_error(trace, "construction_seconds: span-derived "
                              "0.0175s vs reported 0.0115s")

    def test_phase_fill_counts_into_measured_construction(self) -> None:
        trace = passing_trace()
        spans_named(trace, "phase-fill")[0]["dur"] = 6000.0
        self.assert_one_error(trace, "measured_construction_seconds")
        trace["pasjoin_gauges"]["measured_construction_seconds"] = 0.0175
        self.assertEqual(validate(trace), [])

    def test_joinable_fill_instances_against_joinable_tuples_fails(
        self,
    ) -> None:
        trace = passing_trace()
        trace["traceEvents"].append(fill_span(instances=1, bytes=0))
        self.assert_one_error(
            trace, "ships joinable instances only sum to 11")

    def test_unfiltered_fill_instances_are_not_checked(self) -> None:
        # A router that declares no range gets every routed instance
        # shipped; regroup then drops the one-sided partitions.
        trace = passing_trace()
        spans_named(trace, "phase-fill")[0]["args"]["range"] = 0
        spans_named(trace, "fill-task")[0]["args"]["instances"] = 25
        self.assertEqual(validate(trace), [])

    def test_watchdog_fires_without_events_fails(self) -> None:
        trace = passing_trace()
        trace["pasjoin_counters"]["watchdog_fires"] = 1
        self.assert_one_error(trace, "watchdog_fires")

    def test_missing_key_fails(self) -> None:
        for section, key in (("pasjoin_counters", "joinable_tuples"),
                             ("pasjoin_gauges", "kernel_sort_seconds")):
            trace = passing_trace()
            del trace[section][key]
            self.assert_one_error(trace, key)

    def test_empty_export_fails(self) -> None:
        trace = passing_trace()
        trace["pasjoin_counters"] = {}
        trace["pasjoin_gauges"] = {}
        self.assert_one_error(trace, "no job metrics exported")
        trace = passing_trace()
        del trace["pasjoin_counters"]
        del trace["pasjoin_gauges"]
        self.assert_one_error(trace, "no job metrics exported")


if __name__ == "__main__":
    unittest.main()
