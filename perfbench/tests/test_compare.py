"""Tests of run.py's compare mode: python3 perfbench/tests/test_compare.py"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

WORKLOADS = [w["name"] for w in json.loads(run.BENCHMARK.read_text())["workloads"]]
METRICS = json.loads(run.BENCHMARK.read_text())["end_to_end"]


def record(workload, seed, t, tick_ms, cpu="cpu-a", msgs=100.0):
    values = {m["name"]: 1.0 for m in METRICS}
    values["tick_ms_p50"] = tick_ms
    values["msgs_per_tick"] = msgs
    return {
        "workload": workload, "seed": seed, "trace": 0, "unix_time": t,
        "detail": {"provenance": {"cpu_model": cpu, "nproc": 2, "pool_width": 2,
                                  "build_profile": "release", "rustc": "rustc 1"}},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}},
    }


def compare(parent, change):
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, recs in (("p", parent), ("c", change)):
            p = os.path.join(d, name + ".jsonl")
            with open(p, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in recs)
            paths.append(p)
        out = StringIO()
        with redirect_stdout(out):
            status = run.compare(*paths)
    return status, out.getvalue()


def row(text, workload, metric):
    for line in text.splitlines():
        cols = line.split()
        if cols[:2] == [workload, metric]:
            return line
    raise AssertionError(f"no row for {workload} {metric}:\n{text}")


def sets(parent_ms, change_ms, n=10, **kw):
    parent, change = [], []
    for w in WORKLOADS:
        for i in range(n):
            parent.append(record(w, i, 2 * i, parent_ms(i)))
            change.append(record(w, i, 2 * i + 1, change_ms(i), **kw))
    return parent, change


class CompareTest(unittest.TestCase):
    def test_a_clear_gain_is_better(self):
        status, out = compare(*sets(lambda i: 100 + i % 3, lambda i: 80 + i % 3))
        self.assertEqual(status, 0)
        self.assertIn("better", row(out, WORKLOADS[0], "tick_ms_p50"))
        self.assertIn("within-bound", row(out, WORKLOADS[0], "setup_s"))

    def test_a_regression_beyond_the_bound_is_worse(self):
        status, out = compare(*sets(lambda i: 100 + i % 3, lambda i: 130 + i % 3))
        self.assertEqual(status, 1)
        self.assertIn("worse", row(out, WORKLOADS[1], "tick_ms_p50"))

    def test_too_few_pairs_are_unresolved(self):
        _, out = compare(*sets(lambda i: 100, lambda i: 50, n=5))
        self.assertIn("unresolved", row(out, WORKLOADS[0], "tick_ms_p50"))

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        _, out = compare(*sets(lambda i: 100 * (1 + i % 2), lambda i: 100 * (1 + (i + 1) % 2)))
        self.assertIn("unresolved", row(out, WORKLOADS[0], "tick_ms_p50"))

    def test_a_moved_simulated_value_is_flagged(self):
        status, out = compare(*sets(lambda i: 100, lambda i: 100, msgs=101.0))
        self.assertEqual(status, 1)
        self.assertIn("changed", row(out, WORKLOADS[-1], "msgs_per_tick"))

    def test_different_hosts_are_flagged(self):
        _, out = compare(*sets(lambda i: 100, lambda i: 100, cpu="cpu-b"))
        self.assertIn("FLAG", out)
        self.assertIn("(flagged)", row(out, WORKLOADS[0], "tick_ms_p50"))


if __name__ == "__main__":
    sys.exit(unittest.main())
