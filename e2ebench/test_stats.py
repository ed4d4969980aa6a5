"""Tests for the benchmark's own helpers:

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(stats.supports(999, 0.99))
        self.assertTrue(stats.supports(1000, 0.99))
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 0.99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_median_needs_twenty(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 19, 0.5)
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_highest_supported(self):
        self.assertEqual(stats.highest_supported(10_000), 0.999)
        self.assertEqual(stats.highest_supported(5_000), 0.99)
        self.assertEqual(stats.highest_supported(150), 0.9)
        self.assertEqual(stats.highest_supported(20), 0.5)
        self.assertIsNone(stats.highest_supported(19))

    def test_spread_matches_quantiles_rule(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        self.assertAlmostEqual(stats.spread(values), (10.275 - 9.725) / 10.0)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = stats.poisson_schedule(7, "serve-mixed/low", 400, 500, victims=3,
                                   multi_share=0.25, multi_rows=12)
        b = stats.poisson_schedule(7, "serve-mixed/low", 400, 500, victims=3,
                                   multi_share=0.25, multi_rows=12)
        self.assertEqual(a, b)

    def test_seed_and_label_change_schedule(self):
        base = stats.poisson_schedule(7, "x/low", 400, 200)
        self.assertNotEqual(base, stats.poisson_schedule(8, "x/low", 400, 200))
        self.assertNotEqual(base, stats.poisson_schedule(7, "x/high", 400, 200))

    def test_rate_and_shape(self):
        items = stats.poisson_schedule(3, "x", 1000.0, 20_000, victims=3,
                                       multi_share=0.25, multi_rows=8)
        dues = [d for d, _, _ in items]
        self.assertEqual(dues, sorted(dues))
        self.assertAlmostEqual(len(items) / dues[-1], 1000.0, delta=30.0)
        multi = sum(1 for _, _, r in items if r == 8) / len(items)
        self.assertAlmostEqual(multi, 0.25, delta=0.02)
        self.assertEqual({v for _, v, _ in items}, {0, 1, 2})

    def test_backlog_flag(self):
        steady = [50.0] * 400
        growing = [50.0 + 20.0 * i for i in range(400)]
        self.assertFalse(stats.backlog_grew(steady))
        self.assertTrue(stats.backlog_grew(growing))


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


class SelfTime(unittest.TestCase):
    def test_nested(self):
        spans = [span("cell", 0.0, 10.0),
                 span("iter", 1.0, 9.0, 0),
                 span("collect", 1.0, 4.0, 1),
                 span("intrinsic", 4.0, 6.0, 1),
                 span("update", 6.0, 8.5, 1)]
        self.assertEqual(stats.self_times(spans), [2.0, 0.5, 3.0, 2.0, 2.5])
        by_name = stats.self_time_by_name(spans)
        self.assertAlmostEqual(sum(by_name.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [span("phase", 0.0, 10.0),
                 span("req", 1.0, 4.0, 0),
                 span("req", 2.0, 5.0, 0),
                 span("req", 9.0, 12.0, 0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 10.0 - 4.0 - 1.0)


class Agreement(unittest.TestCase):
    BOUNDS = {"wall_s": (0.15, "lower"), "max_rps": (0.25, "higher")}

    def test_within_bounds(self):
        a = {("w", "wall_s"): [1.0, 1.1, 0.9], ("w", "max_rps"): [100, 110, 90]}
        b = {("w", "wall_s"): [1.1, 1.1, 1.0], ("w", "max_rps"): [80, 90, 85]}
        rows = stats.agreement(a, b, self.BOUNDS)
        self.assertTrue(all(ok for *_, ok in rows))

    def test_same_code_agrees_in_both_directions(self):
        a = {("w", "wall_s"): [1.0], ("w", "max_rps"): [100.0]}
        slower = {("w", "wall_s"): [1.2], ("w", "max_rps"): [70.0]}
        faster = {("w", "wall_s"): [0.5], ("w", "max_rps"): [200.0]}
        self.assertFalse(any(ok for *_, ok in stats.agreement(a, slower, self.BOUNDS)))
        self.assertFalse(any(ok for *_, ok in stats.agreement(a, faster, self.BOUNDS)))

    def test_change_against_parent_is_one_sided(self):
        a = {("w", "wall_s"): [1.0], ("w", "max_rps"): [100.0]}
        slower = {("w", "wall_s"): [1.2], ("w", "max_rps"): [70.0]}
        faster = {("w", "wall_s"): [0.5], ("w", "max_rps"): [200.0]}
        self.assertFalse(any(ok for *_, ok in stats.agreement(
            a, slower, self.BOUNDS, two_sided=False)))
        self.assertTrue(all(ok for *_, ok in stats.agreement(
            a, faster, self.BOUNDS, two_sided=False)))

    def test_context_must_match(self):
        c = {"nproc": 4, "backend": "avx512", "imap_threads": "2",
             "build_type": "RelWithDebInfo"}
        self.assertTrue(stats.same_context([c, dict(c)]))
        self.assertFalse(stats.same_context([c, {**c, "backend": "scalar"}]))


if __name__ == "__main__":
    unittest.main()
