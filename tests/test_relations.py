"""Metamorphic relations at the CLI boundary: outputs checked against a transformed input.

R1, row order: every command reads its files as sets of rows. Permuting the
data rows of each CSV, and the sections of ``baselines.cfg``, leaves every
command's stdout and stderr byte-identical.

R2, watt scaling: multiplying every watt of ``bounds.csv`` by c multiplies
every network's kW and kWh/tx cells of the table, and its band values in the
chart CSV, by c. Throughputs, validator counts, ``physical`` flags and the
baseline rows do not change.

R3, joint scaling: multiplying one network's validators and tps by c
multiplies its kW cells by c and leaves its kWh/tx cells as they were. Every
other row does not change.

A scaled cell is compared with c times the cell it scales, within the printed
tolerance of each, since both are rounded when printed.
"""

import contextlib
import csv
import io
import re
from functools import cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posenergy.cli import main
from posenergy.estimator import printed_tolerance
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
def bundled_output(*argv):
    return run_main(argv)


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
            assert run_main([*argv, *flags]) == bundled_output(*argv), command


TABLE = ("table", "--format", "csv")
CHART = ("chart", "--format", "csv")
# the decimals the published kW and kWh/tx figures are printed with; the
# tolerance of every other printed series is taken at kWh/tx's
KW_DECIMALS, KWH_PER_TX_DECIMALS = 2, 6
RELATION_SETTINGS = settings(
    deadline=None, max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def data_rows(name):
    """The bundled CSV ``name``'s data rows, each a dict keyed by the header."""
    with open(bundled(name), newline="", encoding="utf-8") as source:
        return list(csv.DictReader(source))


NETWORKS = sorted(row["network"] for row in data_rows("bounds.csv"))


def scaled_csv(path, name, scale):
    """The bundled CSV ``name`` written to ``path``, each data row passed through ``scale``."""
    rows = [scale(row) for row in data_rows(name)]
    with open(path, "w", newline="", encoding="utf-8") as out:
        writer = csv.DictWriter(out, rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    return path


def by_network(text):
    """A printed CSV as its header and its rows grouped by their first cell."""
    header, *rows = (line.split(",") for line in text.splitlines())
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    return header, groups


def scaled_by(scaled, original, c, decimals):
    """Whether printed ``scaled`` is c times printed ``original``, within both printed tolerances."""
    new, old = float(scaled), float(original)
    slack = printed_tolerance(new, decimals) + c * printed_tolerance(old, decimals)
    return abs(new - c * old) <= slack


def assert_scaled(argv, flag, path, networks, factors):
    """``argv`` run on ``path`` prints what it prints on the bundled file, but scaled.

    In the rows of ``networks``, a column of ``factors`` holds ``(c, decimals)``:
    its cells are c times the bundled ones. Every other cell is byte-identical.
    """
    code, out, err = run_main([*argv, flag, str(path)])
    _, before, before_err = bundled_output(*argv)
    assert (code, err) == (0, before_err)
    (header, groups), (old_header, old_groups) = by_network(out), by_network(before)
    assert header == old_header and groups.keys() == old_groups.keys()
    for name, rows in groups.items():
        assert len(rows) == len(old_groups[name])
        for row, old in zip(rows, old_groups[name]):
            for column, cell, old_cell in zip(header, row, old, strict=True):
                if name in networks and column in factors:
                    assert scaled_by(cell, old_cell, *factors[column]), (name, column, row)
                else:
                    assert cell == old_cell, (name, column, row)


def columns(argv, prefix):
    header = bundled_output(*argv)[1].split("\n", 1)[0].split(",")
    return [column for column in header if column.startswith(prefix)]


class TestWattScaling:
    @RELATION_SETTINGS
    @example(c=2.5)
    @given(c=st.floats(0.1, 10.0))
    def test_power_cells_scale_by_c(self, tmp_path, c):
        def scale(row):
            return {**row, **{k: repr(float(row[k]) * c) for k in ("lower_w", "upper_w")}}

        bounds = scaled_csv(tmp_path / "bounds.csv", "bounds.csv", scale)
        table = {column: (c, KW_DECIMALS) for column in columns(TABLE, "kw_")}
        table |= {column: (c, KWH_PER_TX_DECIMALS) for column in columns(TABLE, "kwh_per_tx")}
        assert_scaled(TABLE, "--bounds", bounds, NETWORKS, table)
        chart = {column: (c, KWH_PER_TX_DECIMALS) for column in columns(CHART, "kwh_per_tx")}
        assert_scaled(CHART, "--bounds", bounds, NETWORKS, chart)


class TestJointScaling:
    @RELATION_SETTINGS
    @example(network="polkadot", c=3)
    @given(network=st.sampled_from(NETWORKS), c=st.integers(2, 10))
    def test_power_scales_and_energy_per_tx_stays(self, tmp_path, network, c):
        def scale(row):
            if row["network"] != network:
                return row
            validators, tps = int(row["validators"]) * c, float(row["tps"]) * c
            return {**row, "validators": str(validators), "tps": repr(tps)}

        observations = scaled_csv(tmp_path / "observations.csv", "observations.csv", scale)
        table = {"validators": (c, 0), "tps": (c, KWH_PER_TX_DECIMALS)}
        table |= {column: (c, KW_DECIMALS) for column in columns(TABLE, "kw_")}
        table |= {column: (1, KWH_PER_TX_DECIMALS) for column in columns(TABLE, "kwh_per_tx")}
        assert_scaled(TABLE, "--observations", observations, {network}, table)
