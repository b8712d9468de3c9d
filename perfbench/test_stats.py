"""Unit checks of the percentile, tail-selection and self-time helpers
against hand-computed samples. Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = [15, 20, 35, 40, 50]
        # ceil(p/100 * 5)-th smallest.
        self.assertEqual(stats.percentile(samples, 5), 15)
        self.assertEqual(stats.percentile(samples, 30), 20)
        self.assertEqual(stats.percentile(samples, 40), 20)
        self.assertEqual(stats.percentile(samples, 50), 35)
        self.assertEqual(stats.percentile(samples, 100), 50)

    def test_unsorted_input_and_even_count(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(samples, 50), 2.0)
        self.assertEqual(stats.percentile(samples, 75), 3.0)
        self.assertEqual(stats.percentile(samples, 0), 1.0)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailTest(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        samples = list(range(1, 41))  # 1..40
        value, pct, n, beyond = stats.tail(samples)
        # 30 is the largest sample with ten (31..40) above it: p75 of 40.
        self.assertEqual((value, pct, n, beyond), (30, 75.0, 40, 10))
        self.assertEqual(stats.percentile(samples, pct), value)

    def test_hundred_samples_give_p90(self):
        samples = [x / 10 for x in range(100, 0, -1)]
        value, pct, n, beyond = stats.tail(samples)
        self.assertEqual((pct, n, beyond), (90.0, 100, 10))
        self.assertAlmostEqual(value, 9.0)

    def test_eleven_samples(self):
        samples = [5, 1, 9, 7, 3, 11, 2, 8, 4, 10, 6]
        value, pct, n, beyond = stats.tail(samples)
        self.assertEqual((value, n, beyond), (1, 11, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_too_few_samples_report_the_max(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3, 0))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_on_one_thread(self):
        def span(name, cat, ts, dur, tid=1):
            return {"ph": "X", "name": name, "cat": cat, "ts": ts,
                    "dur": dur, "tid": tid}

        events = [
            span("outer", "core", 0, 100),
            span("child_a", "engine", 10, 20),
            span("grandchild", "intake", 12, 5),
            span("child_b", "net", 50, 70),  # runs past the parent's end
            span("other_thread", "core", 0, 40, tid=2),
            span("round", "engine", 0, 500),  # lifetime, not work
            span("collect", "driver", 200, 30, tid=3),  # blocked, not work
            span("probe.reenc", "probe", 300, 9, tid=3),  # outside rounds
        ]
        by_name, by_layer = stats.self_times(events)
        # outer: 100 - 20 (child_a) - 50 (child_b inside outer).
        self.assertEqual(by_name["outer"], (30, 1))
        self.assertEqual(by_name["child_a"], (15, 1))
        self.assertEqual(by_name["grandchild"], (5, 1))
        self.assertEqual(by_name["child_b"], (70, 1))
        self.assertEqual(by_name["other_thread"], (40, 1))
        self.assertNotIn("round", by_name)
        self.assertEqual(by_name["collect"], (30, 1))
        self.assertEqual(by_name["probe.reenc"], (9, 1))
        self.assertEqual(by_layer, {"core": 30 + 15 + 5 + 40, "net": 70})


if __name__ == "__main__":
    unittest.main()
