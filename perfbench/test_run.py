"""Unit tests of the benchmark's own arithmetic and checks.

    python3 perfbench/test_run.py

(`dune runtest` runs them too.)
"""

import json
import os
import re
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                              "BENCHMARK.json")


def span(id, parent, start, stop, name="s"):
    return {"id": id, "parent": parent, "req": 0, "name": name,
            "start": start, "stop": stop}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, -1, 0, 100),
            span(1, 0, 10, 40),
            span(2, 1, 15, 20),  # grandchild: counts against 1, not 0
            span(3, 0, 30, 60),  # overlaps 1: the overlap is covered once
            span(4, 0, 90, 120),  # runs past its parent: clipped
            span(5, -1, 200, 210),  # another root, no children
        ]
        self_ = run.self_times(spans)
        self.assertEqual(self_[0], 100 - (60 - 10) - (100 - 90))
        self.assertEqual(self_[1], 30 - 5)
        self.assertEqual(self_[2], 5)
        self.assertEqual(self_[3], 30)
        self.assertEqual(self_[4], 30)
        self.assertEqual(self_[5], 10)

    def test_children_cover_everything(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 0, 4), span(2, 0, 4, 10)]
        self.assertEqual(run.self_times(spans)[0], 0)


class MedianPass(unittest.TestCase):
    def test_one_slow_request_moves_one_sample(self):
        def req(stem, wall):
            return {"stem": stem, "wall_s": wall}
        passes = [[req("a", 1.0), req("b", 2.0)],
                  [req("a", 9.0), req("b", 2.2)],  # "a" hit by another tenant
                  [req("a", 1.2), req("b", 2.1)]]
        self.assertAlmostEqual(run.median_pass(passes, "wall_s"), 1.2 + 2.1)


class Verdict(unittest.TestCase):
    expect = {"stem": "f", "events": 10, "count": 2, "vars": ["x1", "x2"]}
    output = ("FastTrack: 10 events, 2 warning(s), 0.01 ms\n"
              "  write-write race on x1 at [3] by T1 (with the access at 1@T0)\n"
              "  read-write race on x2 at [7] by T0 (with the access at 2@T1)\n")

    def test_matching_verdict(self):
        self.assertTrue(run.verdict_ok(self.expect, 2, self.output))

    def test_dropped_race_fails(self):
        dropped = "\n".join(self.output.splitlines()[:2]).replace("2 warning", "1 warning")
        self.assertFalse(run.verdict_ok(self.expect, 2, dropped))

    def test_wrong_exit_code_fails(self):
        self.assertFalse(run.verdict_ok(self.expect, 0, self.output))
        self.assertFalse(run.verdict_ok(self.expect, 1, self.output))

    def test_wrong_variable_fails(self):
        self.assertFalse(run.verdict_ok(self.expect, 2, self.output.replace("x2", "x9")))

    def test_crash_fails(self):
        self.assertFalse(run.verdict_ok(self.expect, -9, ""))

    def test_race_free_verdict(self):
        expect = {"stem": "f", "events": 4, "count": 0, "vars": []}
        out = "FastTrack: 4 events, 0 warning(s), 0.01 ms\n"
        self.assertTrue(run.verdict_ok(expect, 0, out))
        self.assertFalse(run.verdict_ok(expect, 2, out))


class Names(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_runner(self):
        with open(BENCHMARK_JSON) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {name: unit for name, (unit, _) in run.PER_LAYER.items()})
        for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
