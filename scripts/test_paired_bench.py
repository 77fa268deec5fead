#!/usr/bin/env python3
"""Self-test of the paired gate's verdict over synthetic pair tables.

    python3 scripts/test_paired_bench.py

Standard library only; runs no benchmark.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import paired_bench  # noqa: E402

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "cpu_ns_per_op", "better": "lower", "bound": 0.25},
    {"name": "req_p50_us", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]
BASE = {"setup_s": 0.02, "ops_per_s": 1e8, "cpu_ns_per_op": 16.0,
        "req_p50_us": 400.0, "peak_rss_mib": 14.0}
# A small per-pair wobble (well inside every bound) so quartiles differ.
WOBBLE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def result(values, correct=True, attempted=1000, failed=0, exit_code=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
            "exit": exit_code}


def table(scale=None, **change_kwargs):
    """Ten pairs; `scale` maps a metric to its change/parent factor per pair
    (one number for every pair, or a list of ten)."""
    scale = scale or {}
    pairs = []
    for i, w in enumerate(WOBBLE):
        parent = {k: v * w for k, v in BASE.items()}
        change = {}
        for k, v in parent.items():
            f = scale.get(k, 1.0)
            change[k] = v * (f[i] if isinstance(f, list) else f)
        pairs.append({"parent": result(parent), "change": result(change, **change_kwargs)})
    return pairs


def verdict(pairs):
    rows, failures = paired_bench.verdict(END_TO_END, pairs)
    return {r["metric"]: r for r in rows}, failures


class VerdictTest(unittest.TestCase):
    def test_clean_pass(self):
        rows, failures = verdict(table())
        self.assertEqual(failures, [])
        self.assertEqual(set(rows), {m["name"] for m in END_TO_END})
        self.assertTrue(all(r["verdict"] == "ok" for r in rows.values()))
        self.assertAlmostEqual(rows["ops_per_s"]["ratio"], 1.0)

    def test_ops_per_s_worse_than_its_bound_fails(self):
        rows, failures = verdict(table({"ops_per_s": 0.7}))
        self.assertEqual(rows["ops_per_s"]["verdict"], "FAIL")
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("ops_per_s:"))

    def test_ops_per_s_better_passes(self):
        rows, failures = verdict(table({"ops_per_s": 1.5}))
        self.assertEqual(failures, [])
        self.assertEqual(rows["ops_per_s"]["wins"], 10)

    def test_peak_rss_worse_than_its_bound_fails(self):
        # +12% breaks the 0.1 bound but would pass a 0.25 one.
        rows, failures = verdict(table({"peak_rss_mib": 1.12}))
        self.assertEqual(rows["peak_rss_mib"]["verdict"], "FAIL")
        self.assertEqual([f.split(":")[0] for f in failures], ["peak_rss_mib"])

    def test_correct_false_fails(self):
        pairs = table()
        pairs[3]["change"]["correct"] = False
        _, failures = verdict(pairs)
        self.assertEqual(failures, ["run: pair 4 change reported correct: false"])

    def test_non_zero_exit_fails(self):
        pairs = table()
        pairs[0]["parent"] = {"exit": 1}
        rows, failures = verdict(pairs)
        self.assertEqual(failures, ["run: pair 1 parent exited 1"])
        # The remaining nine pairs are still judged.
        self.assertEqual(len(rows), len(END_TO_END))

    def test_higher_failed_share_fails(self):
        _, failures = verdict(table(failed=1))
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("failed share:"))

    def unresolved_table(self, worse_pairs):
        """A req_p50_us whose parent spread is wider than its bound, made
        1.3x worse in `worse_pairs` of the pairs and 0.95x in the rest."""
        pairs = table({"req_p50_us": [1.3] * worse_pairs + [0.95] * (10 - worse_pairs)})
        for i, pair in enumerate(pairs):
            spread = 0.6 if i % 2 else 1.4
            for side in ("parent", "change"):
                pair[side]["metrics"]["req_p50_us"]["value"] *= spread
        return pairs

    def test_unresolved_metric_worse_in_8_of_10_pairs_passes(self):
        rows, failures = verdict(self.unresolved_table(8))
        self.assertEqual(rows["req_p50_us"]["verdict"], "ok unresolved")
        self.assertGreater(rows["req_p50_us"]["ratio"], 1.25)
        self.assertEqual(failures, [])

    def test_unresolved_metric_worse_in_9_of_10_pairs_fails(self):
        rows, failures = verdict(self.unresolved_table(9))
        self.assertEqual(rows["req_p50_us"]["verdict"], "FAIL unresolved")
        self.assertEqual([f.split(":")[0] for f in failures], ["req_p50_us"])


if __name__ == "__main__":
    unittest.main()
