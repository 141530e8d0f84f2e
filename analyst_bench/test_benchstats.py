#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics: the percentile-with-10-beyond
rule, span self time, unattributed time, and metric derivation.

    python3 analyst_bench/test_benchstats.py
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats as bs  # noqa: E402


def span(id_, name, start, end, parent=0, unit=0):
    return {"id": id_, "parent": parent, "unit": unit, "name": name,
            "rid": 0, "start": start, "end": end}


def reported(id_, name, seconds, parent, unit=0):
    return {"id": id_, "parent": parent, "unit": unit, "name": name,
            "rid": 0, "seconds": seconds}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(bs.nearest_rank(v, 50), 50)
        self.assertEqual(bs.nearest_rank(v, 95), 95)
        self.assertEqual(bs.nearest_rank(v, 100), 100)
        self.assertEqual(bs.nearest_rank([7.0], 99), 7.0)
        self.assertEqual(bs.nearest_rank([3, 1, 2], 50), 2)

    def test_ten_beyond_rule(self):
        # 200 samples: rank 190 for p95 leaves exactly 10 beyond it.
        self.assertEqual(bs.beyond(200, 95), 10)
        self.assertEqual(bs.tail_percentile(list(range(200)))[0], 95)
        # 199 samples: p95 leaves 9, so p90 (rank 180, 19 beyond) is it.
        self.assertEqual(bs.tail_percentile(list(range(199)))[0], 90)
        # 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        self.assertEqual(bs.tail_percentile(list(range(1000))), (99, 989))
        # 20 samples: only the median has 10 beyond it.
        self.assertEqual(bs.tail_percentile(list(range(20))), (50, 9))
        self.assertIsNone(bs.tail_percentile(list(range(19))))

    def test_timing_summary(self):
        t = bs.timing_summary([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((t["n"], t["median"], t["tail_p"]), (4, 2.5, None))
        self.assertEqual(bs.timing_summary([])["median"], None)


class SelfTime(unittest.TestCase):
    def test_children_and_overlap(self):
        spans = [
            span(1, "unit", 0.0, 10.0),
            span(2, "stage.produce", 0.0, 6.0, parent=1),
            span(3, "netsim.run", 1.0, 4.0, parent=2),
            span(4, "metrics.save", 3.0, 5.0, parent=2),  # overlaps 3
            span(5, "core.svg", 7.0, 8.0, parent=1),
        ]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(st[2], 6.0 - 4.0)  # union [1, 5)
        self.assertAlmostEqual(st[3], 3.0)
        self.assertAlmostEqual(st[4], 2.0)

    def test_child_clipped_to_parent(self):
        spans = [span(1, "serve.render", 0.0, 2.0),
                 span(2, "core.svg", 1.5, 3.0, parent=1)]
        self.assertAlmostEqual(bs.self_times(spans)[1], 1.5)

    def test_reported_children(self):
        spans = [span(1, "app.sweep", 0.0, 5.0),
                 reported(2, "flow.run", 3.0, parent=1),
                 reported(3, "metrics.save", 1.5, parent=1)]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st[1], 0.5)
        self.assertAlmostEqual(st[2], 3.0)
        # Never negative, even when reported time exceeds the interval.
        st = bs.self_times([span(1, "app.sweep", 0.0, 1.0),
                            reported(2, "flow.run", 2.0, parent=1)])
        self.assertEqual(st[1], 0.0)

    def test_unattributed(self):
        spans = [
            span(1, "unit", 0.0, 10.0),
            span(2, "stage.brush", 0.0, 10.0, parent=1),
            span(3, "serve.render", 1.0, 4.0, parent=2),
            span(4, "serve.render", 2.0, 6.0, parent=2),  # another client
            reported(5, "flow.run", 9.0, parent=4),
        ]
        self.assertAlmostEqual(bs.unattributed(spans), 5.0 / 10.0)


class Metrics(unittest.TestCase):
    RAW = {
        "peak_rss_mb": 100.0,
        "units": [
            {"kind": "setup", "traced": True, "wall_s": 0.2, "counts": {},
             "brush_ms": [], "produce_s": 0, "first_view_s": 0,
             "brush_wall_s": 0, "report_s": 0},
            {"kind": "warmup", "traced": False, "wall_s": 9.0, "counts": {},
             "brush_ms": [1000.0], "produce_s": 9, "first_view_s": 9,
             "brush_wall_s": 1, "report_s": 0},
            {"kind": "pass", "traced": False, "wall_s": 2.0,
             "brush_ms": [1.0, 2.0, 3.0, 4.0], "produce_s": 1.0,
             "first_view_s": 0.5, "brush_wall_s": 0.4, "report_s": 0.1,
             "counts": {"netsim.events": 100}},
            {"kind": "pass", "traced": True, "wall_s": 2.2,
             "brush_ms": [5.0], "produce_s": 1.1, "first_view_s": 0.6,
             "brush_wall_s": 0.4, "report_s": 0.1,
             "counts": {"netsim.events": 100, "core.cache_hits": 3,
                        "core.cache_misses": 1}},
        ],
        "spans": [
            span(1, "unit", 0.0, 0.2, unit=0),
            span(2, "workload.generate", 0.0, 0.1, parent=1, unit=0),
            span(3, "metrics.save", 0.1, 0.15, parent=1, unit=0),
            span(4, "unit", 1.0, 3.2, unit=3),
            span(5, "netsim.run", 1.0, 1.5, parent=4, unit=3),
            span(6, "metrics.save", 1.5, 1.8, parent=4, unit=3),
        ],
    }

    def test_end_to_end_uses_untraced_passes_only(self):
        e = bs.end_to_end(self.RAW)
        self.assertEqual(set(e), set(bs.END_TO_END))
        self.assertEqual(e["setup_s"], 0.2)
        self.assertEqual(e["loop_s"], 2.0)
        self.assertEqual(e["first_view_s"], 0.5)
        self.assertEqual(e["brush_p50_ms"], 2.0)
        self.assertEqual(e["brush_p95_ms"], 4.0)
        self.assertAlmostEqual(e["serve_rps"], 10.0)
        self.assertAlmostEqual(e["sweep_s"], 1.1)

    def test_per_layer(self):
        p = bs.per_layer(self.RAW)
        self.assertEqual(set(p), set(bs.per_layer_units()))
        # Passes win over set-up; set-up counts only for layers no pass runs.
        self.assertAlmostEqual(p["metrics.save_s"], 0.3)
        self.assertAlmostEqual(p["workload.generate_s"], 0.1)
        self.assertAlmostEqual(p["netsim.run_s"], 0.5)
        self.assertAlmostEqual(p["netsim.events_per_s"], 200.0)
        self.assertEqual(p["core.cache_lookups"], 4)
        self.assertAlmostEqual(p["core.cache_hit_rate"], 0.75)
        self.assertEqual(p["flow.run_s"], 0.0)
        self.assertAlmostEqual(p["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(p["trace.unattributed_frac"], 1.4 / 2.2)


if __name__ == "__main__":
    unittest.main()
