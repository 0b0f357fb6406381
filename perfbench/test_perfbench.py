"""Tests of the benchmark itself, at the small "smoke" scale.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run as bench
import workloads as wl
from tracer import SITES

SEED = 3


def smoke(workload, trace=False):
    return bench.run_workload(workload, seconds=0, trace=trace, min_cycles=1)


class ShrunkR2(wl.Verify):
    """verify with r2 replaced by a copy shrunk about its centroid."""

    def setup(self, lib):
        super().setup(lib)
        self.bundles["r2"] = lib.verify.shrink_cover(self.bundles["r2"], 0.95)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = wl.load_json(wl.REFERENCE)
        cls.spec = wl.load_json(bench.BENCHMARK)

    def declared(self, key):
        return {m["name"] for m in self.spec[key]}

    def test_smoke_run_of_every_workload_passes_its_checks(self):
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                run, metrics, table = smoke(cls(SEED, "smoke", self.reference))
                self.assertEqual(run.failures, [])
                self.assertGreater(run.attempted, 0)
                self.assertEqual(set(metrics), self.declared("end_to_end"))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_calls_run_next_to_twins_on_the_frozen_baseline(self):
        run, metrics, table = smoke(wl.Verify(SEED, "smoke", self.reference))
        self.assertEqual(Path(run.workload.lib.verify.__file__).parent.parent, wl.SRC)
        self.assertEqual(Path(run.baseline.lib.verify.__file__).parent.parent,
                         wl.BASELINE)
        self.assertEqual(len(run.cycles), len(run.twin_cycles))
        self.assertTrue(all(b > 0 for cycle in run.twin_cycles for b in cycle))
        pinned = wl.BASELINE_SECONDS["verify"]
        self.assertAlmostEqual(metrics["main_op_s"],
                               table["main.vs_baseline"][0] * pinned["main"])

    def test_shrunk_cover_fails_the_output_check(self):
        run, _, _ = smoke(ShrunkR2(SEED, "smoke", self.reference))
        self.assertTrue(any(msg.startswith("verify:r2:") for msg in run.failures))
        self.assertGreater(len(run.failures) / run.attempted, 0)

    def test_traced_counts_repeat_and_wrappers_are_removed(self):
        for name, cls in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                first = smoke(cls(SEED, "smoke", self.reference), trace=True)
                run, second, _ = smoke(cls(SEED, "smoke", self.reference), trace=True)
                self.assertEqual(run.failures, [])
                self.assertEqual(set(second), self.declared("per_layer"))
                counts = {k: v for k, v in first[1].items() if not k.endswith("_s")}
                self.assertEqual(counts,
                                 {k: second[k] for k in counts})
                lib = run.workload.lib
                for module, attr, _ in SITES:
                    self.assertNotEqual(getattr(getattr(lib, module), attr).__name__,
                                        "traced")

    def test_traced_run_sees_the_layers_it_should(self):
        _, metrics, _ = smoke(wl.SearchReproduce(SEED, "smoke", self.reference),
                              trace=True)
        size = wl.SCALES["smoke"]
        self.assertEqual(metrics["search.perturb.calls"],
                         size["search_iters"] + size["builds"])
        self.assertGreater(metrics["involute.involute_cover.calls"], 0)
        self.assertGreater(metrics["highprec.pi_decimal.misses"], 0)
        self.assertGreater(metrics["numerics.minimize_1d.evals"], 0)
        # the traced cycle has its own set-up, so local_search optimizes afresh
        self.assertGreater(metrics["smooth.optimize_smooth.self_s"], 0)
        self.assertEqual(metrics["geometry.segment_inside.calls"], 0)
        _, metrics, _ = smoke(wl.Verify(SEED, "smoke", self.reference), trace=True)
        self.assertEqual(metrics["verify.verify_reachability.calls"], 5)
        self.assertEqual(metrics["highprec.sin_decimal.calls"], 0)

    def test_truncate_cuts_significant_digits(self):
        self.assertEqual(wl.truncate("-0.3100390838", 4), "-0.3100")
        self.assertEqual(wl.truncate("1.110732", 3), "1.11")

    def test_without_the_library_it_fails_without_a_result(self):
        bare = bench.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(bench.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(bench.BENCHMARK, bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
