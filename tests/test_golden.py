"""Byte-for-byte CLI outputs on the bundled data.

Each file under ``tests/golden/`` pins what one default invocation prints.
Stdout goes to the named file; stderr, when the command writes any, goes to
the same name plus ``.stderr``. A change that alters any byte must update the
file and say why. Regenerate with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from posenergy.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden stdout file -> argv
CASES = {
    "table.csv": ["table", "--format", "csv", "--verify"],
    "fit.csv": ["fit", "--format", "csv"],
    "chart.csv": ["chart", "--format", "csv"],
    "chart.svg": ["chart", "--format", "svg"],
    "baseline.txt": ["baseline", "--verify"],
    "adjust-solana.csv": ["adjust-solana", "--format", "csv"],
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, out, err = run_case(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()
    stderr_file = GOLDEN / f"{name}.stderr"
    assert err == (stderr_file.read_bytes() if stderr_file.exists() else b"")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}: {err.decode()}")
        (GOLDEN / name).write_bytes(out)
        stderr_file = GOLDEN / f"{name}.stderr"
        if err:
            stderr_file.write_bytes(err)
        elif stderr_file.exists():
            stderr_file.unlink()
