"""The repository's pytest settings report every test, even after a hypothesis failure.

pytest turns warnings into errors. On a failing ``@given`` test hypothesis
imports ``libcst`` to explain the example, and that import warns; a warning
raised as an error there aborts the session, and every later test goes
unreported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
