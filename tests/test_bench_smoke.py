"""The benchmark's own smoke test passes, so a change cannot drop a name the bench calls.

``bench/`` calls the library and the CLI by name (``report.chart_rows``,
``report.chart_csv``, ``fit_networks(include_origin=)``, ``cli._emit``, ...).
Its smoke test runs every workload at a tiny size. It runs here in a
subprocess, so the test suite imports nothing from ``bench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_test_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
