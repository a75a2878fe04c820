"""Tests for the benchmark's statistics helper.

Run from the repository root with `python3 -m unittest discover perfbench`.
"""

import random
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_values(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99.9), 7.0)

    def test_monotone_and_never_above_max(self):
        rng = random.Random(7)
        for _ in range(200):
            xs = [rng.lognormvariate(0, 1) for _ in range(rng.randint(1, 400))]
            last = float("-inf")
            for p in [1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100]:
                value = stats.percentile(xs, p)
                self.assertGreaterEqual(value, last)
                self.assertLessEqual(value, max(xs))
                self.assertGreaterEqual(value, min(xs))
                last = value

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class SummarizeTest(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        cases = {
            19: None,
            20: 50.0,
            40: 75.0,
            99: 75.0,
            100: 90.0,
            199: 90.0,
            200: 95.0,
            1000: 99.0,
            10000: 99.9,
        }
        for n, expected in cases.items():
            summary = stats.summarize([float(i) for i in range(n)])
            self.assertEqual(summary.tail_pct, expected, f"n={n}")
            self.assertEqual(summary.count, n)
            if expected is not None:
                self.assertGreaterEqual(stats.beyond(expected, n), 10)
                # Strictly fewer than ten samples beyond the next rung.
                ladder = stats.TAIL_LADDER
                higher = ladder[ladder.index(expected) + 1:]
                for p in higher:
                    self.assertLess(stats.beyond(p, n), 10, f"n={n} p={p}")

    def test_median_and_tail_bounds(self):
        rng = random.Random(11)
        for _ in range(100):
            xs = [rng.expovariate(1.0) for _ in range(rng.randint(1, 2000))]
            summary = stats.summarize(xs)
            self.assertLessEqual(summary.median, max(xs))
            self.assertGreaterEqual(summary.median, min(xs))
            if summary.tail is not None:
                self.assertLessEqual(summary.tail, max(xs))
                self.assertGreaterEqual(summary.tail, stats.percentile(xs, 50))
                beyond = sum(1 for x in xs if x > summary.tail)
                ties = sum(1 for x in xs if x == summary.tail)
                self.assertGreaterEqual(beyond + ties - 1, 10)

    def test_median_of_even_and_odd_samples(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


if __name__ == "__main__":
    unittest.main()
