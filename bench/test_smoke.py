"""Smoke test of the benchmark: each workload at a tiny size, no timing bound.

Run from the repository root with either of::

    python3 -m pytest bench/test_smoke.py
    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TINY = ("--seconds", "1", "--points", "50", "--days", "20", "--repeats", "1")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=WORK))
        self.addCleanup(shutil.rmtree, self.tmp, True)
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_workload_reports_every_metric(self) -> None:
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record_path = self.tmp / f"{workload}-{trace}.json"
                    done = run_bench(ROOT, "--workload", workload, "--seed", "7",
                                     "--trace", str(trace), "--out", str(record_path), *TINY)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[kind]})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    record = json.loads(record_path.read_text())
                    if trace == 0:
                        self.assertEqual(record["metrics"]["failed_ops_ratio"], 0)

    def test_refuses_without_the_program(self) -> None:
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(BENCH, self.tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(self.tmp, "--workload", "cli-default", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
