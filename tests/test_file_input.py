"""Generated input files: every loader and every data flag either works or names the bad input.

Files are the only way data enters the program, so a malformed one must
fail as a named error (the path, and the row where there is one), never as
a traceback, and a snapshot written by the program must read back exactly.
"""

import contextlib
import csv
import datetime as dt
import io
import re
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posenergy.baselines import load_baselines
from posenergy.cli import main
from posenergy.core import NetworkObservation
from posenergy.ingestion import (
    OBSERVATION_HEADER,
    SnapshotFormatError,
    bundled,
    load_bounds,
    load_profiles,
    load_reported,
    load_snapshots,
    write_snapshot,
)
from posenergy.solana import VoteRatioRecord

SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

BOUNDS_HEADER = ("network", "lower_w", "upper_w", "source")
PROFILES_HEADER = ("network", "max_tps")
REPORTED_HEADER = ("name", "global_kw", "kwh_per_tx", "tps", "validators")

TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
TOO_LARGE = [str(2**53 + 1), "1" + "0" * 309]  # counts a float cannot hold exactly
CELLS = st.one_of(
    st.sampled_from(
        ["", "near", "solana", "visa", "Near", "2023-01-31", "2023-02-30", "0", "1", "-1",
         "6.33", "1e999", "nan", "GJ", "TWh", *TOO_LARGE]
    ),
    st.integers().map(str),
    st.floats().map(repr),
    st.dates().map(dt.date.isoformat),
    TEXT,
)
COUNTS = st.one_of(st.integers(0, 10**4).map(str), st.sampled_from(TOO_LARGE))
AMOUNTS = st.one_of(st.floats(0.0, 1e6).map(repr), st.integers(0, 10**4).map(str))
PLAUSIBLE = {
    "network": st.sampled_from(["near", "solana", "tezos"]),
    "name": st.sampled_from(["visa", "bitcoin", "cardano"]),
    "date": st.dates(dt.date(2022, 1, 1), dt.date(2023, 12, 31)).map(dt.date.isoformat),
    "validators": COUNTS,
    "nonvote_per_day": COUNTS,
    "total_per_day": COUNTS,
}


def csv_files(header):
    """A header row, then rows that are well typed, partly typed, or any cells at all.

    Rows of any cells may be short or long; a partly typed row draws each
    cell from its column's plausible values or from any cell.
    """
    plausible = [PLAUSIBLE.get(column, AMOUNTS) for column in header]
    row = st.one_of(
        st.tuples(*plausible),
        st.tuples(*(st.one_of(cells, CELLS) for cells in plausible)),
        st.lists(CELLS, max_size=len(header) + 2),
    )
    rows = st.lists(row.map(",".join), max_size=6)
    return rows.map(lambda lines: "".join(line + "\n" for line in [",".join(header), *lines]))


# Section names: network ids, names a CSV cell or SVG text would mangle, and any line.
SECTION_NAMES = st.one_of(
    st.sampled_from(["visa", "bitcoin-lower", "bitcoin-upper", "a", "", "a<b&c", "a,b", "Visa"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), min_size=1, max_size=8),
)
CFG_LINES = st.one_of(
    SECTION_NAMES.map("[{}]".format),
    st.tuples(st.sampled_from(["year", "amount", "unit", "tps", "note"]), CELLS).map(
        " = ".join
    ),
    TEXT,
)
# Whole records, so that files which load, and the names they print, are drawn often.
RECORD = "[{}]\nyear = 2021\namount = 646000\nunit = GJ\ntps = 1736"
CFG_SECTIONS = SECTION_NAMES.map(RECORD.format)
CFG_FILES = st.one_of(
    st.lists(CFG_SECTIONS, min_size=1, max_size=3),
    st.lists(st.one_of(CFG_LINES, CFG_SECTIONS), max_size=12),
).map(lambda lines: "".join(l + "\n" for l in lines))


def loaded_or_named(load, text):
    """Write ``text`` to a file and load it; a failure must name the path and a data row."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            load(path)
        except SnapshotFormatError as exc:
            match = re.match(rf"{re.escape(str(path))} row (\d+): ", str(exc))
            assert match, str(exc)
            assert 2 <= int(match.group(1)) <= len(text.splitlines())


BUNDLED_BOUNDS = load_bounds(bundled("bounds.csv"))


class TestLoaders:
    @pytest.mark.parametrize(
        "load, header",
        [
            (load_snapshots, OBSERVATION_HEADER),
            (load_snapshots, OBSERVATION_HEADER[:4]),
            (load_bounds, BOUNDS_HEADER),
            (lambda path: load_profiles(path, BUNDLED_BOUNDS), PROFILES_HEADER),
            (load_reported, REPORTED_HEADER),
        ],
        ids=["snapshots", "snapshots-required", "bounds", "profiles", "reported"],
    )
    @SETTINGS
    @given(data=st.data())
    def test_rows_parse_or_name_path_and_row(self, load, header, data):
        loaded_or_named(load, data.draw(csv_files(header)))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CHART = ["chart", "--points", "5"]
DATA_FLAGS = [
    (["fit"], "--observations", OBSERVATION_HEADER),
    (["table", "--verify"], "--observations", OBSERVATION_HEADER[:4]),
    (["table"], "--bounds", BOUNDS_HEADER),
    (["table"], "--baselines", None),
    (["table", "--verify"], "--reported", REPORTED_HEADER),
    (CHART, "--observations", OBSERVATION_HEADER[:4]),
    ([*CHART, "--format", "svg"], "--observations", OBSERVATION_HEADER[:4]),
    (CHART, "--bounds", BOUNDS_HEADER),
    (CHART, "--profiles", PROFILES_HEADER),
    (CHART, "--baselines", None),
    ([*CHART, "--format", "svg"], "--baselines", None),
    (["baseline", "--verify"], "--baselines", None),
    (["baseline", "--format", "csv"], "--baselines", None),
    (["baseline", "--verify"], "--reported", REPORTED_HEADER),
    (["adjust-solana"], "--observations", OBSERVATION_HEADER),
]


class TestDataFlags:
    @pytest.mark.parametrize(
        "argv, flag, header", DATA_FLAGS, ids=[" ".join([*a, f]) for a, f, _ in DATA_FLAGS]
    )
    @settings(SETTINGS, max_examples=50)
    @given(data=st.data())
    def test_exit_code_and_one_named_error(self, argv, flag, header, data):
        files = CFG_FILES if header is None else csv_files(header)
        text = data.draw(st.one_of(files, TEXT))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data"
            path.write_text(text, encoding="utf-8")
            code, out, err = run_main([*argv, flag, str(path)])
        assert code in (0, 1)
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert_well_formed(argv, out)


def assert_well_formed(argv, out):
    """An SVG parses as XML, and every CSV row has as many cells as the header."""
    if "svg" in argv:
        ElementTree.fromstring(out)
    elif argv[0] == "chart" or "csv" in argv:
        widths = {len(row) for row in csv.reader(io.StringIO(out))}
        assert len(widths) == 1, out


class TestBaselineNames:
    @SETTINGS
    @given(name=SECTION_NAMES)
    def test_network_id_or_path_and_section_named(self, name):
        text = RECORD.format(name) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baselines.cfg"
            path.write_text(text, encoding="utf-8")
            valid = re.fullmatch(r"[a-z0-9][a-z0-9_-]*", name)
            try:
                records = load_baselines(path)
            except ValueError as exc:
                assert not valid
                # "[]" is no section header, so that file has none to name
                named = f"{path} [{name}]: invalid network id" if name else f"{path}: "
                assert str(exc).startswith(named), str(exc)
            else:
                assert valid and [record.name for record in records] == [name]


NETWORK_IDS = st.from_regex(r"[a-z0-9][a-z0-9_-]{0,11}", fullmatch=True)
OBSERVATIONS = st.lists(
    st.builds(
        NetworkObservation,
        network=NETWORK_IDS,
        date=st.dates(),
        validators=st.integers(0, 2**53),
        tps=st.floats(min_value=0.0, allow_infinity=False),
        provenance=st.text(st.characters(codec="utf-8"), max_size=12),
    ),
    max_size=6,
    unique_by=lambda o: (o.network, o.date),
)
VOTES = st.lists(
    st.integers(1, 2**53).flatmap(
        lambda total: st.builds(
            VoteRatioRecord,
            date=st.dates(),
            nonvote_tx_per_day=st.integers(0, total),
            total_tx_per_day=st.just(total),
            reported_tps=st.floats(min_value=0.0, allow_infinity=False),
        )
    ),
    max_size=4,
)


def vote_key(record):
    return (record.date, record.reported_tps, record.nonvote_tx_per_day, record.total_tx_per_day)


class TestSnapshotRoundTrip:
    @SETTINGS
    @given(observations=OBSERVATIONS, votes=VOTES, data=st.data())
    def test_write_then_load_is_exact(self, observations, votes, data):
        # some vote records share a date and throughput with an observation, so they fold
        if observations:
            for obs in data.draw(st.lists(st.sampled_from(observations), max_size=2)):
                votes.append(VoteRatioRecord(obs.date, 1, 2, obs.tps))
        unwritable = [
            o for o in observations if o.provenance != o.provenance.strip() or "\0" in o.provenance
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snapshot.csv"
            if unwritable:
                with pytest.raises(ValueError, match="provenance of"):
                    write_snapshot(path, observations, votes)
                return
            write_snapshot(path, observations, votes)
            loaded = load_snapshots(path)
        assert loaded.observations == tuple(sorted(observations, key=lambda o: (o.network, o.date)))
        assert sorted(loaded.vote_records, key=vote_key) == sorted(votes, key=vote_key)
