"""The metrics run.py prints are exactly the ones BENCHMARK.json declares.

Run from the repository root with `python3 -m unittest discover perfbench`.
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class DeclaredMetricsTest(unittest.TestCase):
    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)

    def test_per_layer_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_recorded_digests_cover_every_workload(self):
        digests = json.loads((BENCH / "digests.json").read_text())
        for workload in run.WORKLOADS.values():
            self.assertRegex(digests[workload.digest], r"^[0-9a-f]{64}$")


if __name__ == "__main__":
    unittest.main()
