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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posenergy import ingestion
from posenergy.baselines import load_baselines
from posenergy.cli import build_parser, main
from posenergy.core import (
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    parse_date,
    validate_network_id,
)
from posenergy.estimator import ReportedEstimate
from posenergy.ingestion import (
    OBSERVATION_HEADER,
    DuplicateObservationError,
    Snapshot,
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
         "6.33", "1e999", "nan", "GJ", "TWh", "kW", "W", "MWh", *TOO_LARGE]
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


def csv_files(header, values=PLAUSIBLE):
    """A header row, then rows that are well typed, partly typed, or any cells at all.

    Rows of any cells may be short or long; a partly typed row draws each
    cell from its column's plausible ``values`` or from any cell.
    """
    plausible = [values.get(column, AMOUNTS) for column in header]
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


# Reference loaders: a csv.DictReader and a ``cell(name)`` accessor that reads each
# field by name, in the order each parser asks for it. The positional reader must
# load every file to an equal result, or fail naming the same path and row. The one
# exception: it rejects a vote-only row that lacks its provenance cell, which these
# loaders never read.


def reference_read_csv(path, required, parse):
    def cell(name):
        value = row.get(name, "")
        if value is None:
            raise ValueError(f"missing {name!r} cell")
        return value.strip()

    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    number = 1
    try:
        if reader.fieldnames is None:
            raise SnapshotFormatError(f"{path}: empty file, expected a header row")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SnapshotFormatError(f"{path}: missing columns {missing}")
        number = 2
        for row in reader:
            try:
                parsed = parse(cell)
            except ValueError as exc:
                raise SnapshotFormatError(f"{path} row {number}: {exc}") from exc
            yield number, parsed
            number += 1
    except csv.Error as exc:
        raise SnapshotFormatError(f"{path} row {number}: {exc}") from exc


def reference_parse_row(cell):
    network = validate_network_id(cell("network"))
    date = parse_date(cell("date"))
    tps = float(cell("tps"))
    validators_cell = cell("validators")
    nonvote_cell = cell("nonvote_per_day")
    total_cell = cell("total_per_day")
    if bool(nonvote_cell) != bool(total_cell):
        raise ValueError("nonvote_per_day and total_per_day must appear together")
    # the second intended change, taken here too: a vote record has no network,
    # so counts on another network's row used to be read as solana's
    if nonvote_cell and network != "solana":
        raise ValueError(f"vote counts are recorded for solana only, got {network!r}")
    observation = None
    if validators_cell:
        observation = NetworkObservation(
            network, date, int(validators_cell), tps, provenance=cell("provenance")
        )
    elif not nonvote_cell:
        raise ValueError("validators cell is empty and no vote counts are present")
    vote = None
    if nonvote_cell:
        vote = VoteRatioRecord(date, int(nonvote_cell), int(total_cell), tps)
    return observation, vote


def reference_load_snapshots(path):
    observations, votes, seen = [], [], set()
    for number, (observation, vote) in reference_read_csv(
        path, OBSERVATION_HEADER[:4], reference_parse_row
    ):
        if observation is not None:
            key = (observation.network, observation.date)
            if key in seen:
                raise DuplicateObservationError(
                    f"{path} row {number}: duplicate observation for "
                    f"({key[0]}, {key[1].isoformat()})"
                )
            seen.add(key)
            observations.append(observation)
        if vote is not None:
            votes.append(vote)
    return Snapshot(tuple(observations), tuple(votes))


# The reference writer: every row through one csv.writer on the open file, as
# write_snapshot did before it kept each observation's line.
def reference_write_snapshot(path, observations, vote_records=()):
    rows = sorted(observations, key=lambda o: (o.network, o.date))
    for obs in rows:
        if obs.provenance != obs.provenance.strip() or "\0" in obs.provenance:
            raise ValueError(f"provenance of ({obs.network}, {obs.date}) would not read back")
    votes = sorted(vote_records, key=lambda v: (v.date, v.reported_tps))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_HEADER)
        writer.writerows(
            (o.network, o.date.isoformat(), o.validators, repr(o.tps), "", "", o.provenance)
            for o in rows
        )
        writer.writerows(
            ("solana", v.date.isoformat(), "", repr(v.reported_tps), v.nonvote_tx_per_day,
             v.total_tx_per_day, "")
            for v in votes
        )


def reference_read_table(path, required, parse, what):
    out = {}
    keyed = reference_read_csv(path, required, lambda cell: (cell(required[0]), parse(cell)))
    for row, (key, parsed) in keyed:
        if key in out:
            raise SnapshotFormatError(f"{path} row {row}: duplicate {what} for {key!r}")
        out[key] = parsed
    return out


def reference_load_bounds(path):
    def parse(cell):
        return ValidatorPowerBounds(
            network=cell("network"),
            lower_w=float(cell("lower_w")),
            upper_w=float(cell("upper_w")),
            source_note=cell("source"),
        )

    return reference_read_table(path, ("network", "lower_w", "upper_w"), parse, "bounds")


def reference_load_profiles(path, bounds):
    def parse(cell):
        network = cell("network")
        if network not in bounds:
            raise ValueError(f"no power bounds for network {network!r}")
        return NetworkProfile(network, bounds[network], float(cell("max_tps")))

    return reference_read_table(path, ("network", "max_tps"), parse, "profile")


def reference_load_reported(path):
    def parse(cell):
        kw_cell, tps_cell, validators_cell = cell("global_kw"), cell("tps"), cell("validators")
        return ReportedEstimate(
            name=cell("name"),
            global_kw=float(kw_cell) if kw_cell else None,
            kwh_per_tx=float(cell("kwh_per_tx")),
            tps=float(tps_cell) if tps_cell else None,
            validators=int(validators_cell) if validators_cell else None,
        )

    return reference_read_table(path, ("name", "global_kw", "kwh_per_tx"), parse, "estimate")


# An empty validators cell makes a snapshot row vote-only, and empty vote
# counts make it an observation only.
OR_EMPTY = st.one_of(COUNTS, st.just(""))
READER_VALUES = {
    **PLAUSIBLE, "validators": OR_EMPTY, "nonvote_per_day": OR_EMPTY, "total_per_day": OR_EMPTY
}
# Free text: separators, quotes and line breaks of each kind.
QUOTABLE = st.lists(st.sampled_from(["a", " ", ",", '"', "\n", "\r", "\r\n"]), max_size=6)


def quoted(cells):
    """``cells`` quoted, at times ending in a space or a line break, which loading strips."""
    ends = st.sampled_from(["", " ", "\n", "\r\n", "\r"])
    return st.tuples(cells, ends).map(lambda pair: '"' + "".join(pair).replace('"', '""') + '"')


@st.composite
def reader_files(draw, header):
    """``csv_files`` text with quoted cells, at times with a header name repeated.

    Every line ends in one terminator drawn for the file, ``\\n``, ``\\r\\n``
    or ``\\r``, and the last may end in none. Blank lines follow the header,
    and a data line may be repeated.
    """
    names = list(header)
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(header)))
    values = {}
    for name in names:
        cells = READER_VALUES.get(name, AMOUNTS)
        if name in ("provenance", "source"):
            cells = st.one_of(cells, QUOTABLE.map("".join))
        values[name] = st.one_of(cells, quoted(cells))
    lines = draw(csv_files(names, values)).split("\n")[:-1]
    if len(lines) > 1 and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines[1:])))
    for index in sorted(draw(st.lists(st.integers(1, len(lines)), max_size=3)), reverse=True):
        lines.insert(index, "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def load_outcome(load, path):
    """``("loaded", repr of the result)``, or the error type and where it is named.

    A repr compares NaN cells as equal. An error that names a row is placed
    by ``<path> row N``; any other error by its whole message.
    """
    try:
        return "loaded", repr(load(path)), ""
    except SnapshotFormatError as exc:
        message = str(exc)
        row = re.match(rf"{re.escape(str(path))} row \d+", message)
        return type(exc).__name__, row.group(0) if row else message, message


def row_number(where):
    return int(where.rsplit(" ", 1)[1])


REFERENCE_LOADERS = [
    (load_snapshots, reference_load_snapshots, OBSERVATION_HEADER),
    (load_snapshots, reference_load_snapshots, OBSERVATION_HEADER[:4]),
    (load_bounds, reference_load_bounds, BOUNDS_HEADER),
    (
        lambda path: load_profiles(path, BUNDLED_BOUNDS),
        lambda path: reference_load_profiles(path, BUNDLED_BOUNDS),
        PROFILES_HEADER,
    ),
    (load_reported, reference_load_reported, REPORTED_HEADER),
]


class TestReaderMatchesReference:
    @pytest.mark.parametrize(
        "load, reference, header",
        REFERENCE_LOADERS,
        ids=["snapshots", "snapshots-required", "bounds", "profiles", "reported"],
    )
    @SETTINGS
    @given(data=st.data())
    def test_same_result_or_same_row(self, load, reference, header, data):
        text = data.draw(reader_files(header))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            # the same outcome on every load, whether the file is parsed or (when its
            # bytes are the last a write wrote) the write's records are returned
            outcomes = [load_outcome(load, path) for _ in range(2)]
            expected = load_outcome(reference, path)
        for kind, where, message in outcomes:
            if (kind, where) != expected[:2]:
                # the first intended change: a vote-only row that lacks its provenance cell
                assert message.endswith("missing 'provenance' cell"), (message, expected)
                assert expected[0] == "loaded" or row_number(expected[1]) > row_number(where)

    def load_both(self, tmp_path, load, reference, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        outcome = load_outcome(load, path)
        assert outcome == load_outcome(reference, path)
        return outcome

    def test_blank_first_line_misses_columns(self, tmp_path):
        text = "\nnetwork,date,validators,tps\nnear,2023-01-31,158,6.33\n"
        _, where, _ = self.load_both(tmp_path, load_snapshots, reference_load_snapshots, text)
        assert where.endswith(": missing columns ['network', 'date', 'validators', 'tps']")

    def test_blank_lines_are_not_rows(self, tmp_path):
        text = (
            "network,date,validators,tps\n\n"
            "near,2023-01-31,158,6.33\n\n\n"
            "near,2023-02-01,many,6.33\n"
        )
        _, where, _ = self.load_both(tmp_path, load_snapshots, reference_load_snapshots, text)
        assert where.endswith("data.csv row 3")

    def test_repeated_header_name_reads_last_column(self, tmp_path):
        text = "network,lower_w,upper_w,lower_w\nnear,1,5,2\n"
        self.load_both(tmp_path, load_bounds, reference_load_bounds, text)
        assert load_bounds(tmp_path / "data.csv")["near"].lower_w == 2.0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("Solana,2022-12-11,,4123,1,2,", "invalid network id 'Solana'"),
            ("solana,2022-02-30,,4123,1,2,", "invalid date '2022-02-30'"),
            (
                "near,2022-12-11,,6.3,10,100,",
                "vote counts are recorded for solana only, got 'near'",
            ),
            ("near,2022-12-11,158,6.3,10,100,", "vote counts are recorded for solana only"),
        ],
        ids=["network", "date", "not-solana", "not-solana-observation"],
    )
    def test_vote_only_row_checks_network_and_date(self, tmp_path, row, message):
        text = ",".join(OBSERVATION_HEADER) + "\n" + row + "\n"
        *_, error = self.load_both(tmp_path, load_snapshots, reference_load_snapshots, text)
        assert error.startswith(f"{tmp_path / 'data.csv'} row 2: {message}")

    def test_vote_only_row_needs_provenance_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(",".join(OBSERVATION_HEADER) + "\nsolana,2022-12-11,,4123,1,2\n")
        assert len(reference_load_snapshots(path).vote_records) == 1
        with pytest.raises(SnapshotFormatError) as raised:
            load_snapshots(path)
        assert str(raised.value) == f"{path} row 2: missing 'provenance' cell"


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
            if flag == "--baselines":
                assert err.startswith(f"error: {path}"), err
        else:
            assert_well_formed(argv, out)


# bundled file -> the flag that names it
FLAG_OF = {
    "observations.csv": "--observations",
    "solana_votes.csv": "--observations",
    "bounds.csv": "--bounds",
    "profiles.csv": "--profiles",
    "baselines.cfg": "--baselines",
    "reported_estimates.csv": "--reported",
}
CHART_FILES = ["observations.csv", "bounds.csv", "profiles.csv", "baselines.cfg"]
# command -> (argv, the bundled files it reads)
BOM_COMMANDS = {
    "fit": (["fit", "--format", "csv"], ["observations.csv"]),
    "table": (["table", "--format", "csv", "--verify"],
              ["observations.csv", "bounds.csv", "baselines.cfg", "reported_estimates.csv"]),
    "chart-csv": (["chart", "--format", "csv"], CHART_FILES),
    "chart-svg": (["chart", "--format", "svg"], CHART_FILES),
    "baseline": (["baseline", "--verify"], ["baselines.cfg", "reported_estimates.csv"]),
    "adjust-solana": (["adjust-solana", "--format", "csv"], ["solana_votes.csv"]),
}


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is not part of the file."""

    @pytest.mark.parametrize("command", sorted(BOM_COMMANDS))
    def test_bom_copies_give_identical_output(self, tmp_path, command):
        argv, names = BOM_COMMANDS[command]
        marked = []
        for name in names:
            copy = tmp_path / name
            copy.write_bytes(b"\xef\xbb\xbf" + bundled(name).read_bytes())
            marked += [FLAG_OF[name], str(copy)]
        expected = run_main(argv)
        assert expected[0] == 0
        assert run_main([*argv, *marked]) == expected

    def test_only_one_mark_is_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + bundled("observations.csv").read_bytes())
        with pytest.raises(SnapshotFormatError, match=r"missing columns \['network'\]"):
            load_snapshots(path)


class TestBundledDefaults:
    """A data flag omitted or given as "" reads the file bundled for it."""

    @pytest.mark.parametrize(
        "command, name", [(c, name) for c, (_, names) in BOM_COMMANDS.items() for name in names]
    )
    def test_omitted_or_empty_flag_reads_bundled_file(self, command, name):
        argv, _ = BOM_COMMANDS[command]
        given = run_main([*argv, FLAG_OF[name], str(bundled(name))])
        assert given[0] == 0
        assert run_main(argv) == given
        assert run_main([*argv, FLAG_OF[name], ""]) == given

    def test_every_data_flag_is_covered(self):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        data_flags = {
            command: {
                flag
                for action in parser._actions
                if "(default: bundled)" in action.help
                for flag in action.option_strings
            }
            for command, parser in commands.choices.items()
        }
        covered = {command: set() for command in commands.choices}
        for argv, names in BOM_COMMANDS.values():
            covered[argv[0]].update(FLAG_OF[name] for name in names)
        assert covered == data_flags


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
    @example(name="upper")
    @example(name="a-lower")
    def test_network_id_or_path_and_section_named(self, name):
        text = RECORD.format(name) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baselines.cfg"
            path.write_text(text, encoding="utf-8")
            valid = re.fullmatch(r"[a-z0-9][a-z0-9_-]*", name)
            stem, _, suffix = name.rpartition("-")
            # a lone half of a lower/upper pair has a valid name but no partner;
            # a bare "lower" or "upper" has no stem, so it is a plain name
            unpaired = valid and stem and suffix in ("lower", "upper")
            try:
                records = load_baselines(path)
            except ValueError as exc:
                if unpaired:
                    named = f"{path}: baseline {stem!r} has an incomplete lower/upper pair"
                else:
                    assert not valid
                    # "[]" is no section header, so that file has none to name
                    named = f"{path} [{name}]: invalid network id" if name else f"{path}: "
                assert str(exc).startswith(named), str(exc)
            else:
                assert valid and not unpaired and [record.name for record in records] == [name]


NETWORK_IDS = st.from_regex(r"[a-z0-9][a-z0-9_-]{0,11}", fullmatch=True)
OBSERVATIONS = st.lists(
    st.builds(
        NetworkObservation,
        network=NETWORK_IDS,
        date=st.dates(),
        validators=st.integers(0, 2**53),
        tps=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, allow_infinity=False)
        ),
        # the characters csv quotes or that need more than one UTF-8 byte, among any others
        provenance=st.text(
            st.one_of(st.sampled_from(',"\r\n\té€𝄞'), st.characters(codec="utf-8")), max_size=12
        ),
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
        # some vote records share a date and throughput with an observation, and
        # at times an observation shares its (network, date) with another
        if observations:
            for obs in data.draw(st.lists(st.sampled_from(observations), max_size=2)):
                votes.append(VoteRatioRecord(obs.date, 1, 2, obs.tps))
            for obs in data.draw(st.lists(st.sampled_from(observations), max_size=1)):
                validators = data.draw(st.one_of(st.just(obs.validators), st.integers(0, 2**53)))
                observations.append(
                    NetworkObservation(obs.network, obs.date, validators, obs.tps, obs.provenance)
                )
        unwritable = [
            o for o in observations if o.provenance != o.provenance.strip() or "\0" in o.provenance
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "snapshot.csv", Path(tmp) / "again.csv"
            reference = Path(tmp) / "reference.csv"
            if unwritable:
                # the second attempt fails too: nothing of a refused write is kept
                for _ in range(2):
                    with pytest.raises(ValueError, match="provenance of"):
                        write_snapshot(path, observations, votes)
                assert not path.exists()
                return
            reference_write_snapshot(reference, observations, votes)
            # the second write takes every observation line from the first
            for _ in range(2):
                write_snapshot(path, observations, votes)
                assert path.read_bytes() == reference.read_bytes()
            # a reload of the bytes just written returns what the write kept,
            # which must be what parsing them gives once nothing is kept
            outcome = load_outcome(load_snapshots, path)
            assert outcome == load_outcome(reference_load_snapshots, path)
            _, written, _ = ingestion._last_written
            ingestion._last_written = (b"", None, {})
            assert load_outcome(load_snapshots, path) == outcome
            if len({(o.network, o.date) for o in observations}) < len(observations):
                assert outcome[0] == "DuplicateObservationError" and written is None
                return
            loaded = load_snapshots(path)
            assert loaded == written
            write_snapshot(again, loaded.observations, loaded.vote_records)
            assert again.read_bytes() == path.read_bytes()
            assert load_snapshots(again) is ingestion._last_written[1]
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        assert loaded.observations == tuple(sorted(observations, key=lambda o: (o.network, o.date)))
        assert sorted(loaded.vote_records, key=vote_key) == sorted(votes, key=vote_key)
        # each record has a row of its own: an observation row carries no vote
        # counts, and a vote row no validator count
        assert len(rows) == len(observations) + len(votes)
        assert all(not r["nonvote_per_day"] for r in rows[: len(observations)])
        assert all(not r["validators"] for r in rows[len(observations):])
