"""Tests of compare.py on synthetic result sets.

  python3 -B -m unittest discover -s benchmark -p 'test_*.py'
"""

import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "ftl.self_ms", "unit": "ms", "better": "lower"}],
}


def result_set(values, workload="w", metric="wall_s", first_seed=1):
    return {"runs": [{"workload": workload, "seed": first_seed + i,
                      "metrics": {metric: v}} for i, v in enumerate(values)]}


def verdict(base, cand, metric="wall_s"):
    rows = compare.compare_sets(result_set(base, metric=metric),
                                result_set(cand, metric=metric), SPEC)
    assert len(rows) == 1
    return rows[0]


STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


class CompareMetricTest(unittest.TestCase):
    def test_identical_sets_are_unchanged(self):
        row = verdict(STEADY, STEADY)
        self.assertEqual(row["verdict"], "unchanged")
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["change"], 0.0)

    def test_slower_beyond_bound_is_worse(self):
        self.assertEqual(verdict(STEADY, [v * 1.2 for v in STEADY])["verdict"], "worse")

    def test_slower_within_bound_is_unchanged(self):
        self.assertEqual(verdict(STEADY, [v * 1.05 for v in STEADY])["verdict"],
                         "unchanged")

    def test_consistent_gain_is_better(self):
        row = verdict(STEADY, [v * 0.9 for v in STEADY])
        self.assertEqual(row["verdict"], "better")
        self.assertEqual(row["wins"], 10)
        self.assertAlmostEqual(row["change"], -0.1)

    def test_higher_is_better_direction(self):
        base = [1000 * v for v in STEADY]
        self.assertEqual(verdict(base, [v * 1.2 for v in base], "ops_per_s")["verdict"],
                         "better")
        self.assertEqual(verdict(base, [v * 0.8 for v in base], "ops_per_s")["verdict"],
                         "worse")

    def test_gain_that_wins_too_few_pairs_is_unchanged(self):
        cand = [v * 0.97 for v in STEADY]
        cand[0], cand[1] = STEADY[0] * 1.01, STEADY[1] * 1.01  # two losing pairs
        row = verdict(STEADY, cand)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.0]
        self.assertEqual(verdict(noisy, [v * 1.05 for v in noisy])["verdict"],
                         "unresolved")

    def test_wide_spread_with_total_separation_is_resolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.0]
        self.assertEqual(verdict(noisy, [v * 3 for v in noisy])["verdict"], "worse")
        self.assertEqual(verdict(noisy, [v / 3 for v in noisy])["verdict"], "better")

    def test_per_layer_metrics_get_no_verdict(self):
        self.assertEqual(verdict(STEADY, [v * 2 for v in STEADY], "ftl.self_ms")["verdict"],
                         "-")


class CompareSetsTest(unittest.TestCase):
    def test_runs_pair_by_seed(self):
        base = result_set([1.0, 1.01, 0.99])
        cand = result_set([1.01, 0.99], first_seed=2)  # seeds 2 and 3 only
        row = compare.compare_sets(base, cand, SPEC)[0]
        self.assertEqual(row["pairs"], 2)
        self.assertEqual(row["verdict"], "unchanged")

    def test_workloads_and_metrics_missing_on_one_side_are_skipped(self):
        base = result_set(STEADY, workload="a")
        cand = result_set(STEADY, workload="b")
        self.assertEqual(compare.compare_sets(base, cand, SPEC), [])
        other = result_set(STEADY, workload="a", metric="ops_per_s")
        self.assertEqual(compare.compare_sets(base, other, SPEC), [])

    def test_main_exit_status_flags_regressions(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, values in (("base", STEADY), ("same", STEADY),
                                 ("slow", [v * 1.5 for v in STEADY])):
                paths[name] = Path(tmp) / f"{name}.json"
                paths[name].write_text(json.dumps(result_set(values)))
            # main() reads the real BENCHMARK.json, which bounds wall_s.
            with redirect_stdout(StringIO()) as out:
                same = compare.main([str(paths["base"]), str(paths["same"])])
                slow = compare.main([str(paths["base"]), str(paths["slow"])])
            self.assertEqual((same, slow), (0, 1))
            self.assertIn("worse", out.getvalue())

    def test_directory_merges_its_result_sets(self):
        with tempfile.TemporaryDirectory() as tmp:
            for seed, value in enumerate(STEADY, start=1):
                (Path(tmp) / f"{seed}.json").write_text(
                    json.dumps(result_set([value], first_seed=seed)))
            rows = compare.compare_sets(compare.read_set(tmp), result_set(STEADY), SPEC)
            self.assertEqual(rows[0]["pairs"], len(STEADY))
            self.assertEqual(rows[0]["change"], 0.0)

    def test_named_sets_of_one_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sets.json"
            path.write_text(json.dumps({"sets": {
                "A": result_set(STEADY), "B": result_set([v * 1.5 for v in STEADY])}}))
            rows = compare.compare_sets(compare.read_set(f"{path}:A"),
                                        compare.read_set(f"{path}:B"), SPEC)
            self.assertEqual(rows[0]["verdict"], "worse")


if __name__ == "__main__":
    unittest.main()
