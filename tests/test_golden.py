"""Byte-for-byte CLI outputs on the bundled data.

Each file under ``tests/golden/`` pins what one default invocation prints.
Stdout goes to the named file; stderr, when the command writes any, goes to
the same name plus ``.stderr``. The 20,000-point chart outputs are too large
to keep, so only their sha256 is pinned. A change that alters any byte must
update the file (or hash) and say why. Regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
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


# sha256 of stdout at 20,000 grid points per network (14 networks): the
# per-point hot paths of band evaluation, CSV rows and SVG polygons.
STRESS_SHA256 = {
    "csv": "e129074cc23b8ad0e800153b62016d7091c32d3ca703a15e1db7d8d8e3a15588",
    "svg": "5cbe1266b40d22fc47afc68ea885658a7fc37c77a22ac1f4565421960c9d11c7",
}


@pytest.mark.parametrize("fmt", sorted(STRESS_SHA256))
def test_stress_chart_matches_pinned_hash(fmt):
    code, out, err = run_case(["chart", "--format", fmt, "--points", "20000"])
    assert (code, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == STRESS_SHA256[fmt]


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
