"""Tests of the steadiness verdict in perfbench/steady.py."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import steady  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_quartile_spread_within_bound_is_steady(self):
        s = steady.summarize([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1,
                              9.9, 10.0], bound=0.1)
        self.assertEqual(s["median"], 10.0)
        self.assertLess(s["spread"], 0.1)
        self.assertEqual(s["verdict"], "steady")
        self.assertIn("10", steady.format_row("p50_ms", "ms", s))

    def test_spread_past_bound_prints_no_figure(self):
        s = steady.summarize([10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0],
                             bound=0.1)
        self.assertGreater(s["spread"], 0.1)
        self.assertEqual(s["verdict"], steady.NOISE)
        row = steady.format_row("p99_ms", "ms", s)
        self.assertIn(steady.NOISE, row)
        self.assertNotIn(f"{s['median']:.6g} ", row.split("q1")[0])

    def test_unbounded_metric_is_always_shown(self):
        s = steady.summarize([1.0, 5.0, 9.0, 2.0], bound=None)
        self.assertEqual(s["verdict"], "steady")

    def test_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        s = steady.summarize(values, bound=1.0)
        # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25.
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
