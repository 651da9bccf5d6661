"""The scripts under ``demos/`` run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import posenergy

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script", ["contemporary_table.py", "solana_adjustment.py", "throughput_extrapolation.py"]
)
def test_demo_runs(script, tmp_path):
    # throughput_extrapolation.py writes its SVG to the working directory
    src = str(Path(posenergy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
