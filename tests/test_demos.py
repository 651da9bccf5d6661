"""The scripts under ``demos/`` and the README's library example run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import posenergy

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SCRIPTS = ["contemporary_table.py", "solana_adjustment.py", "throughput_extrapolation.py"]


def readme_library_block():
    """The python block under the README's ``## Library`` heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


@pytest.mark.parametrize(
    "argv",
    [[str(DEMOS / script)] for script in SCRIPTS] + [["-c", readme_library_block()]],
    ids=SCRIPTS + ["README-library"],
)
def test_demo_runs(argv, tmp_path):
    # throughput_extrapolation.py writes its SVG to the working directory
    src = str(Path(posenergy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
