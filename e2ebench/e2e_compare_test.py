#!/usr/bin/env python3
"""Tests for e2e_compare.py (stdlib unittest; run directly or by ctest)."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "exec.map_s", "unit": "s", "better": "lower"}],
}


def record(workload, values, correct=True):
    """A rounds.py record with one run per value of each metric."""
    runs = []
    for i in range(len(next(iter(values.values())))):
        metrics = {name: {"value": v[i], "unit": "s"}
                   for name, v in values.items()}
        runs.append({"round": i, "seed": 1, "workload": workload,
                     "elapsed_s": 1.0,
                     "result": {"correct": correct, "attempted": 1,
                                "failed": 0 if correct else 1,
                                "metrics": metrics}})
    return {"seconds": 1, "runs": runs}


class VerdictTest(unittest.TestCase):
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_quartiles_match_statistics(self):
        self.assertEqual(e2e_compare.quartiles([1, 2, 3, 4, 5]),
                         (1.5, 3, 4.5))
        self.assertEqual(e2e_compare.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_within_bound(self):
        b = [v * 1.05 for v in self.steady]
        self.assertEqual(
            e2e_compare.verdict(self.steady, b, "lower", 0.1), "within bound")

    def test_regression_lower_is_better(self):
        b = [v * 1.2 for v in self.steady]
        self.assertEqual(
            e2e_compare.verdict(self.steady, b, "lower", 0.1), "regression")

    def test_regression_higher_is_better(self):
        b = [v * 0.8 for v in self.steady]
        self.assertEqual(
            e2e_compare.verdict(self.steady, b, "higher", 0.1), "regression")
        self.assertEqual(
            e2e_compare.verdict(self.steady, b, "lower", 0.1), "within bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
        self.assertEqual(
            e2e_compare.verdict(self.steady, noisy, "lower", 0.1),
            "unresolved")

    def test_wide_spread_but_every_run_better_is_within_bound(self):
        noisy = [0.5, 0.7, 0.52, 0.68, 0.6, 0.55, 0.65, 0.58, 0.62, 0.6]
        self.assertEqual(
            e2e_compare.verdict(self.steady, noisy, "lower", 0.1),
            "within bound")

    def test_no_bound(self):
        self.assertEqual(
            e2e_compare.verdict(self.steady, self.steady, "lower", None), "-")

    def test_spread_rating(self):
        self.assertEqual(e2e_compare.spread_rating(self.steady, 0.1),
                         "< bound/3")
        self.assertEqual(e2e_compare.spread_rating([1, 1.1, 0.9, 1.2, 0.8],
                                                   0.1), "> bound")


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.spec = self.write("spec.json", SPEC)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, obj):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(obj, f)
        return path

    def run_main(self, *records):
        out = io.StringIO()
        code = e2e_compare.main(["--spec", self.spec, *records], out=out)
        return code, out.getvalue()

    def test_compare_flags_regression_and_exits_1(self):
        a = self.write("a.json", record("w", {
            "wall_s": [1.0, 1.0, 1.01, 0.99], "exec.map_s": [1, 1, 1, 1]}))
        b = self.write("b.json", record("w", {
            "wall_s": [1.3, 1.3, 1.31, 1.29], "exec.map_s": [2, 2, 2, 2]}))
        code, text = self.run_main(a, b)
        self.assertEqual(code, 1)
        wall_row = next(l for l in text.splitlines() if "wall_s" in l)
        self.assertIn("regression", wall_row)
        self.assertIn("+30.0% worse", wall_row)
        map_row = next(l for l in text.splitlines() if "exec.map_s" in l)
        self.assertTrue(map_row.rstrip().endswith("-"))

    def test_compare_within_bound_exits_0(self):
        a = self.write("a.json", record("w", {"wall_s": [1.0, 1.0, 1.0]}))
        b = self.write("b.json", record("w", {"wall_s": [1.0, 1.0, 1.0]}))
        code, text = self.run_main(a, b)
        self.assertEqual(code, 0)
        self.assertIn("within bound", text)

    def test_incorrect_runs_are_left_out_and_fail(self):
        a = self.write("a.json", record("w", {"wall_s": [1.0, 1.0]}))
        bad = record("w", {"wall_s": [9.0]}, correct=False)
        good = record("w", {"wall_s": [1.0, 1.0]})
        good["runs"] += bad["runs"]
        b = self.write("b.json", good)
        code, text = self.run_main(a, b)
        self.assertEqual(code, 1)
        self.assertIn("1 incorrect or failed run(s) left out", text)

    def test_single_record_reports_spread(self):
        a = self.write("a.json", record("w", {"wall_s": [1, 2, 3, 4, 5]}))
        code, text = self.run_main(a)
        self.assertEqual(code, 0)
        row = next(l for l in text.splitlines() if "wall_s" in l)
        self.assertIn("3 [1.5, 4.5]", row)
        self.assertIn("100.0%", row)
        self.assertIn("> bound", row)


class LayerMapTest(unittest.TestCase):
    """layers.json maps exactly BENCHMARK.json's per-layer metrics."""

    def test_layer_map_matches_benchmark_json(self):
        with open(os.path.join(e2e_compare.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(e2e_compare.ROOT, "e2ebench",
                               "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(list(layers), [m["name"] for m in spec["per_layer"]])
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        workloads = {w["name"] for w in spec["workloads"]}
        for name, layer in layers.items():
            self.assertEqual(layer["module"], name.split(".")[0], name)
            for move in layer["moves"]:
                self.assertIn(move["metric"], end_to_end, name)
                self.assertTrue(move["workloads"], name)
                self.assertLessEqual(set(move["workloads"]), workloads, name)


if __name__ == "__main__":
    unittest.main()
