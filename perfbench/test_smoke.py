"""Smoke test of the benchmark at toy size; no timing assertions.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Runs every workload with --toy, which sends the few toy-size requests of
the cycle once, and checks that every metric named in BENCHMARK.json is
printed with its unit, that no request failed, and that two traced runs
with one seed count exactly the same calls.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(workload, trace, seed="0"):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_layers_file_matches_benchmark_json(self):
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        self.assertEqual([{k: m[k] for k in ("name", "unit", "better")} for m in layers],
                         SPEC["per_layer"])

    def test_end_to_end_metrics(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, res = result(workload, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, expected)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
                self.assertEqual((res["correct"], res["failed"]), (True, 0))
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(report["failed_frac"], {"value": 0.0, "unit": "frac"})
                self.assertTrue(report["reference_checked"])

    def test_traced_counts_repeat(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = result(workload, 1)
                _, second = result(workload, 1)
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, expected)
                self.assertEqual(first["failed"], 0)
                calls = [{k: v["value"] for k, v in r["metrics"].items()
                          if k.endswith(".calls")} for r in (first, second)]
                self.assertEqual(calls[0], calls[1])
                self.assertGreater(sum(calls[0].values()), 0)

    def test_fails_without_sources(self):
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
