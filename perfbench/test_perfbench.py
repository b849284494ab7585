#!/usr/bin/env python3
"""Self-tests of the benchmark, at smoke size so they run in seconds.

  python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds the harness.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def invoke(*args: str) -> tuple[dict, str]:
    """Runs the benchmark; returns its result line and its stderr."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke", *args],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def result_file(workload: str, seed: int, trace: int) -> dict:
    path = Path(".bench_out") / f"result-{workload}-{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class CorrectnessGate(unittest.TestCase):
    def test_healthy_run_passes(self):
        result, _ = invoke("--workload", "hydro-paper", "--seconds", "0")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 6)
        self.assertEqual({m for m, *_ in bench.END_TO_END},
                         set(result["metrics"]))

    def test_nan_state_counts_as_failed(self):
        # sigma=1e6 drives the run to KE=nan by step 4, yet the runner still
        # completes every step.
        result, err = invoke("--workload", "hydro-paper", "--seconds", "0",
                             "--set", "sigma=1e6", "--set", "np=12")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 3)
        self.assertIn("non-finite final state", err)

    def test_perturbed_reference_energy_fails(self):
        ref = json.loads(bench.DEFAULT_REFERENCE.read_text(encoding="utf-8"))
        ref["values"]["hydro-paper"]["smoke"]["42"]["ke"] *= 1.001
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=".",
                                         delete=False) as f:
            json.dump(ref, f)
        try:
            result, err = invoke("--workload", "hydro-paper", "--seconds", "0",
                                 "--reference", f.name)
        finally:
            Path(f.name).unlink()
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 3)
        self.assertIn("outside reference", err)

    def test_failed_shard_probe_fails_the_workload(self):
        ref = json.loads(bench.DEFAULT_REFERENCE.read_text(encoding="utf-8"))
        ref["values"]["hydro-sharded"]["smoke"]["42"]["ke"] *= 1.001
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=".",
                                         delete=False) as f:
            json.dump(ref, f)
        try:
            result, err = invoke("--workload", "hydro-paper", "--trace", "1",
                                 "--reference", f.name)
        finally:
            Path(f.name).unlink()
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("failed hydro-sharded", err)

    def test_unknown_seed_uses_envelope(self):
        result, _ = invoke("--workload", "gravity-box", "--seconds", "0",
                           "--seed", "12345")
        self.assertTrue(result["correct"])


class ExactCounters(unittest.TestCase):
    def test_counters_repeat_bit_for_bit(self):
        for workload in bench.WORKLOADS:
            seen = []
            for _ in range(2):
                result, _ = invoke("--workload", workload, "--trace", "1")
                self.assertTrue(result["correct"], workload)
                seen.append({k: result["metrics"][k]["value"]
                             for k in bench.EXACT})
            self.assertEqual(seen[0], seen[1], workload)
            # The counters actually count something on these workloads.
            self.assertGreater(seen[0]["run.steps"], 0)
            self.assertGreater(seen[0]["domain.leaf_pairs"], 0)
            if workload in bench.SHARD_PROBE:
                self.assertGreater(seen[0]["shard.ghosts"], 0)
            else:
                self.assertGreater(seen[0]["ckpt.bytes"], 0)

    def test_trace_reports_every_layer_metric(self):
        result, _ = invoke("--workload", "hydro-paper", "--trace", "1")
        self.assertEqual([m for m, *_ in bench.PER_LAYER],
                         list(result["metrics"]))
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(values["shard.ghosts"], 0)
        self.assertGreater(values["shard.interaction_overhead"], 1.0)
        self.assertGreater(values["xsycl.upGeo.interactions"], 0)
        layers = next(r for r in result_file("hydro-paper", 42, 1)["records"]
                      if r["kind"] == "layers")
        trace = json.loads(Path(layers["trace"]).read_text(encoding="utf-8"))
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        self.assertTrue({"run.run", "core.step", "ic.generate",
                         "gravity.pm_solve", "domain.update"} <= names)


class HostBlock(unittest.TestCase):
    def test_result_carries_host_fingerprint(self):
        invoke("--workload", "hydro-paper", "--seconds", "0")
        host = result_file("hydro-paper", 42, 0)["host"]
        for key in ("nproc", "cpu", "compiler", "build_type", "commit",
                    "source_sha256", "pool", "comparable"):
            self.assertIn(key, host)
        self.assertEqual(host["comparable"], host["build_type"] != "Debug")


class Catalog(unittest.TestCase):
    def test_benchmark_json_matches_catalog(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json in this checkout")
        spec = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(n, w["why"]) for n, w in bench.WORKLOADS.items()])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, b) for n, u, b, _ in bench.PER_LAYER])

    def test_reference_has_default_and_held_out_seeds(self):
        ref = json.loads(bench.DEFAULT_REFERENCE.read_text(encoding="utf-8"))
        seeds = [str(ref["default_seed"])] + [str(s) for s in ref["held_out_seeds"]]
        for instance in bench.INSTANCES:
            for size in ("real", "smoke"):
                table = ref["values"][instance][size]
                for seed in seeds:
                    self.assertIn(seed, table, (instance, size))


if __name__ == "__main__":
    unittest.main()
