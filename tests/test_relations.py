"""Metamorphic relations at the CLI boundary: outputs checked against a transformed input.

R1, row order: every command reads its files as sets of rows. Permuting the
data rows of each CSV, and the sections of ``baselines.cfg``, leaves every
command's stdout and stderr byte-identical.
"""

import contextlib
import io
import re
from functools import cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posenergy.cli import main
from posenergy.ingestion import bundled

# flag key -> (flag, bundled file)
FILES = {
    "observations": ("--observations", "observations.csv"),
    "votes": ("--observations", "solana_votes.csv"),
    "bounds": ("--bounds", "bounds.csv"),
    "profiles": ("--profiles", "profiles.csv"),
    "baselines": ("--baselines", "baselines.cfg"),
    "reported": ("--reported", "reported_estimates.csv"),
}

CHART_FILES = ("observations", "bounds", "profiles", "baselines")
# command -> (argv, the files it reads)
COMMANDS = {
    "table": (["table", "--verify"], ("observations", "bounds", "baselines", "reported")),
    "fit": (["fit"], ("observations",)),
    "chart-csv": (["chart", "--format", "csv"], CHART_FILES),
    "chart-svg": (["chart", "--format", "svg"], CHART_FILES),
    "baseline": (["baseline", "--verify"], ("baselines", "reported")),
    "adjust-solana": (["adjust-solana"], ("votes",)),
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@cache
def bundled_output(command):
    return run_main(COMMANDS[command][0])


def units(name):
    """The bundled file as (head, items): a CSV's header and data rows, or a config's sections."""
    text = bundled(name).read_text(encoding="utf-8")
    if name.endswith(".cfg"):
        head, *sections = re.split(r"(?m)^(?=\[)", text)
        return head, [section.rstrip("\n") + "\n\n" for section in sections]
    header, *rows = text.splitlines(keepends=True)
    return header, rows


class TestRowOrder:
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_permuted_inputs_print_the_same_bytes(self, tmp_path, data):
        paths = {}
        for key, (_, name) in FILES.items():
            head, items = units(name)
            paths[key] = tmp_path / name  # each example overwrites the last one's file
            paths[key].write_text(head + "".join(data.draw(st.permutations(items))),
                                  encoding="utf-8")
        for command, (argv, keys) in COMMANDS.items():
            flags = [arg for key in keys for arg in (FILES[key][0], str(paths[key]))]
            assert run_main([*argv, *flags]) == bundled_output(command), command
