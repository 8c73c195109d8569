"""Tests of the benchmark's own arithmetic: the percentile rule, span self
time and failure counting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import metrics


def span(id, parent, start, end, name="s", request=1):
    return {"id": id, "parent": parent, "request": request, "name": name,
            "start_ns": start, "end_ns": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile(values, 1.0), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_small_and_empty(self):
        self.assertEqual(metrics.percentile([7.5], 0.9), 7.5)
        self.assertIsNone(metrics.percentile([], 0.5))

    def test_failures_miss_every_limit(self):
        # 100 requests, the slowest 10 % failed: p90 is still a real
        # latency, one failure more and it is infinite.
        samples = [{"ok": True, "latency_ms": float(i)} for i in range(90)]
        samples += [{"ok": False, "latency_ms": 0.1}] * 10
        self.assertEqual(metrics.percentile(metrics.latencies(samples), 0.9),
                         89.0)
        samples[0] = {"ok": False, "latency_ms": 0.0}
        self.assertEqual(metrics.percentile(metrics.latencies(samples), 0.9),
                         math.inf)

    def test_shed_request_counts_even_if_fast(self):
        samples = [{"ok": False, "latency_ms": 0.01},
                   {"ok": True, "latency_ms": 5.0}]
        self.assertEqual(metrics.percentile(metrics.latencies(samples), 0.5),
                         5.0)
        self.assertEqual(metrics.percentile(metrics.latencies(samples), 1.0),
                         math.inf)


class PerSlotTest(unittest.TestCase):
    def test_one_noisy_slot_does_not_move_the_median(self):
        def slot_of(i, ms, n=10):
            return [{"ok": True, "latency_ms": ms, "slot": i,
                     "measured": True}] * n
        samples = slot_of(0, 1.0) + slot_of(1, 9.0) + slot_of(2, 1.2)
        samples.append({"ok": True, "latency_ms": 50.0, "slot": 2,
                        "measured": False})  # warm-up: not timed
        p50, rate = metrics.per_slot(samples, [1.0, 2.0, 1.0], 0.5)
        self.assertEqual(p50, 1.2)
        self.assertEqual(rate, 10.0)

    def test_failures_count_in_their_slot(self):
        samples = [{"ok": False, "latency_ms": 0.1, "slot": 0,
                    "measured": True},
                   {"ok": True, "latency_ms": 0.2, "slot": 0,
                    "measured": True}]
        p90, rate = metrics.per_slot(samples, [2.0], 0.9)
        self.assertEqual(p90, math.inf)
        self.assertEqual(rate, 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_children_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)]
        self.assertEqual(metrics.self_times(spans)[1], 70)

    def test_overlapping_children_counted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 50)]
        self.assertEqual(metrics.self_times(spans)[1], 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130)]
        self.assertEqual(metrics.self_times(spans)[1], 90)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 40)]
        st = metrics.self_times(spans)
        self.assertEqual(st[1], 50)
        self.assertEqual(st[2], 10)
        self.assertEqual(st[3], 40)

    def test_covered_union(self):
        self.assertEqual(metrics.covered_ns(0, 10, []), 0)
        self.assertEqual(metrics.covered_ns(0, 10, [(2, 4), (3, 6), (8, 9)]),
                         5)


class FailureCountTest(unittest.TestCase):
    def test_counts(self):
        samples = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
        self.assertEqual(metrics.count_failures(samples), (4, 2))

    def test_every_phase_counts(self):
        raw = {
            "cold_passes": [{"requests": [{"ok": True}, {"ok": False}]}],
            "warm": [{"ok": True}] * 3,
            "served": [{"ok": False}, {"ok": True}],
        }
        self.assertEqual(metrics.count_failures(metrics.all_requests(raw)),
                         (7, 2))

    def test_failed_run_is_not_correct(self):
        raw = {
            "trace": False, "error_count": 0, "setup_s": [0.2],
            "cold_passes": [{
                "cold_s": 2.0, "corun_s": 1.0, "capture_s": 1.5,
                "capture_instructions": 1000,
                "requests": [{"ok": True}],
                "coruns": [{"scenario": "jpeg-canny",
                            "prediction_error_pct": 0.0,
                            "shared": {"instructions": 10, "l2_misses": 50},
                            "partitioned": {"instructions": 10,
                                            "l2_misses": 10}}],
            }],
            "warm": [{"ok": True, "latency_ms": 90.0}],
            "served": [{"ok": False, "latency_ms": 0.2, "slot": 0,
                        "measured": True},
                       {"ok": True, "latency_ms": 0.3, "slot": 0,
                        "measured": True},
                       {"ok": True, "latency_ms": 0.1, "slot": 0,
                        "measured": False}],
            "served_slot_s": [1.0], "driver_rss_mb": 10.0,
            "server_rss_mb": 20.0,
        }
        result = metrics.summarize(raw, [])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (5, 1))
        m = result["metrics"]
        self.assertEqual(m["success_rate"]["value"], 0.8)
        self.assertEqual(m["served_ms_p50"]["value"], 0.3)
        self.assertEqual(m["served_ms_p90"]["value"], 1e12)  # the failure
        self.assertEqual(m["miss_reduction_x.jpeg-canny"]["value"], 5.0)


if __name__ == "__main__":
    unittest.main()
