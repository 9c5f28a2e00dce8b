"""Checks of the benchmark entry point that need no build.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the module under test lives one level up)


class BenchmarkJsonAgreesWithRunner(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Arguments(unittest.TestCase):
    def test_rejects_unknown_workload(self):
        with self.assertRaises(SystemExit), mock.patch("sys.stderr"):
            run.parse_args(["--workload", "nope", "--seed", "1",
                            "--seconds", "5", "--trace", "0"])

    def test_rejects_zero_seconds(self):
        with self.assertRaises(SystemExit), mock.patch("sys.stderr"):
            run.parse_args(["--workload", "txn_contended", "--seed", "1",
                            "--seconds", "0", "--trace", "0"])


class Build(unittest.TestCase):
    def test_fails_fast_without_library_sources(self):
        with mock.patch.object(run, "ROOT", BENCH_DIR / "no-such-checkout"):
            with self.assertRaises(run.BenchError):
                run.build()


if __name__ == "__main__":
    unittest.main()
