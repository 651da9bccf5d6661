"""Snapshot files and merge rules.

Snapshots are small CSV files with a fixed header. Rows normally carry a
validator count; rows that instead carry vote/nonvote day counts with an
empty validators cell contribute vote-ratio records only (historical rows
for which no validator count was recorded). Only solana rows may carry vote
counts. The writer puts each record on a row of its own; the reader also
accepts a row that carries both, which yields an observation and a
vote-ratio record.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import (
    NetworkObservation,
    NetworkProfile,
    Record,
    ValidatorPowerBounds,
    parse_date,
    validate_network_id,
)
from .estimator import ReportedEstimate
from .solana import VoteRatioRecord

OBSERVATION_HEADER = (
    "network",
    "date",
    "validators",
    "tps",
    "nonvote_per_day",
    "total_per_day",
    "provenance",
)
# The one network whose rows may carry vote counts. A VoteRatioRecord holds no
# network, so the reader refuses counts on any other and the writer puts this
# one on every vote row.
_VOTE_NETWORK = "solana"
# Distinct snapshot lines whose parse is kept, and distinct observations whose
# line is: well above the 3,514 lines a 250-day window of the 14 bundled
# networks plus one new day reads.
_MEMO_ROWS = 8192
# Each kept snapshot line's (observation, vote), keyed by the header's column
# positions and the line as csv reads it, terminator included; least recently
# used first.
_parsed_lines: OrderedDict[tuple[tuple[int | None, ...], str], tuple] = OrderedDict()


class SnapshotFormatError(ValueError):
    """A snapshot file failed to parse; the message names the row."""


class DuplicateObservationError(SnapshotFormatError):
    """Two observation rows in one file share a (network, date) key."""


class MergeConflictError(ValueError):
    """Observation sets disagree about a (network, date) pair."""


class Snapshot(Record):
    """Observations plus any vote-ratio records found in the same file."""

    observations: tuple[NetworkObservation, ...]
    vote_records: tuple[VoteRatioRecord, ...]


def bundled(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).with_name("data") / name


def load_snapshots(path: str | os.PathLike[str]) -> Snapshot:
    """Load one snapshot CSV.

    Each line is parsed once per process, for up to 8,192 distinct lines: a
    line read before, under a header with its columns in the same places,
    returns the same records without csv reading or validating it again. So
    two loads may return the same record objects, which is safe because
    records are frozen. Only a line that holds a whole row, and whose row
    parsed, is kept; a row whose quoted cell runs onto further lines is read
    by csv every time. For a line of about 65 characters the memo holds about
    320 B beyond the records a caller keeps, and about 630 B where it alone
    keeps them: 5.2 MB at the bound. It keeps the lines used last, so
    re-reading, in order, a file of more distinct lines than the bound reuses
    none. A bad row is never kept: it fails, naming its file and row, every
    time it is read. Repeated (network, date) rows are refused on every load.

    Raises:
        SnapshotFormatError: missing header, missing columns, or a cell that
            does not parse (the message carries the row number).
        DuplicateObservationError: repeated (network, date) observation rows.
    """
    observations: list[NetworkObservation] = []
    votes: list[VoteRatioRecord] = []
    seen: set[tuple[str, dt.date]] = set()
    for number, (observation, vote) in _read_csv(
        path, OBSERVATION_HEADER, 4, _parse_row, _parsed_lines
    ):
        if observation is not None:
            key = (observation.network, observation.date)
            if key in seen:
                raise DuplicateObservationError(
                    f"{os.fspath(path)} row {number}: duplicate observation for "
                    f"({key[0]}, {key[1].isoformat()})"
                )
            seen.add(key)
            observations.append(observation)
        if vote is not None:
            votes.append(vote)
    return Snapshot(tuple(observations), tuple(votes))


def _parse_row(
    network: str, date: str, validators: str, tps: str, nonvote: str, total: str, provenance: str
) -> tuple[NetworkObservation | None, VoteRatioRecord | None]:
    """One row's observation and vote record, each field validated once."""
    reported_tps = float(tps)
    if bool(nonvote) != bool(total):
        raise ValueError("nonvote_per_day and total_per_day must appear together")

    observation = None
    if validators:
        # NetworkObservation validates the network id and the date
        observation = NetworkObservation(network, date, int(validators), reported_tps, provenance)
        day = observation.date
    elif nonvote:
        validate_network_id(network)
        day = parse_date(date)
    else:
        raise ValueError("validators cell is empty and no vote counts are present")

    vote = None
    if nonvote:
        if network != _VOTE_NETWORK:
            raise ValueError(f"vote counts are recorded for {_VOTE_NETWORK} only, got {network!r}")
        vote = VoteRatioRecord(
            date=day,
            nonvote_tx_per_day=int(nonvote),
            total_tx_per_day=int(total),
            reported_tps=reported_tps,
        )
    return observation, vote


def merge(*observation_sets: Iterable[NetworkObservation]) -> list[NetworkObservation]:
    """Union observation sets into one canonical, sorted, duplicate-free list.

    Rows that are exactly equal collapse to one; rows sharing (network, date)
    but differing in any field are rejected, with both values reported.
    """
    kept: dict[tuple[str, dt.date], NetworkObservation] = {}
    conflicts: dict[tuple[str, dt.date], list[NetworkObservation]] = {}
    for group in observation_sets:
        for obs in group:
            key = (obs.network, obs.date)
            first = kept.setdefault(key, obs)
            if first is not obs and first != obs:
                rows = conflicts.setdefault(key, [first])
                if obs not in rows:
                    rows.append(obs)
    if conflicts:
        raise MergeConflictError("conflicting observations: " + "; ".join(
            f"({network}, {date.isoformat()}): "
            + " vs ".join(
                f"validators={o.validators} tps={o.tps!r} provenance={o.provenance!r}"
                for o in rows
            )
            for (network, date), rows in sorted(conflicts.items())
        ))
    return [kept[key] for key in sorted(kept)]


def write_snapshot(
    path: str | os.PathLike[str],
    observations: Iterable[NetworkObservation],
    vote_records: Iterable[VoteRatioRecord] = (),
) -> None:
    """Write the unified CSV schema; inverse of :func:`load_snapshots`.

    Every record has a row of its own, in canonical order: observations
    sorted by (network, date), then vote records, with an empty validators
    cell, sorted by (date, reported throughput) with ties in input order.

    Each observation's line is formatted once per process, for up to 8,192
    distinct observations, so a refresh that rewrites a window formats only
    its new rows. For a line of about 70 characters the memo holds about 270 B
    per entry beyond the records it keeps alive, 2.2 MB at the bound. A row
    refused for its provenance is never kept: it fails every time it is
    written. Every line is built, and the text encoded, before the file is
    opened, so a refused write, or one whose text has no UTF-8 form, leaves an
    existing file as it was.
    """
    rows = sorted(observations, key=lambda o: (o.network, o.date))
    votes = sorted(vote_records, key=lambda v: (v.date, v.reported_tps))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(OBSERVATION_HEADER)
    text.writelines(map(_observation_line, rows))
    writer.writerows(
        (
            _VOTE_NETWORK,
            v.date.isoformat(),
            "",
            repr(v.reported_tps),
            v.nonvote_tx_per_day,
            v.total_tx_per_day,
            "",
        )
        for v in votes
    )
    data = text.getvalue().encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)


@functools.lru_cache(maxsize=_MEMO_ROWS)
def _observation_line(obs: NetworkObservation) -> str:
    """One observation's snapshot line, as :mod:`csv` quotes it.

    Memoised on the record: equal records print alike, since a record stores a
    zero throughput as ``0.0``. A record that raises is not memoised.
    """
    # loading strips cells, and the csv reader of Python 3.10 refuses NUL
    if obs.provenance != obs.provenance.strip() or "\0" in obs.provenance:
        raise ValueError(f"provenance of ({obs.network}, {obs.date}) would not read back")
    line = io.StringIO()
    csv.writer(line).writerow(
        (obs.network, obs.date.isoformat(), obs.validators, repr(obs.tps), "", "", obs.provenance)
    )
    return line.getvalue()


def load_bounds(path: str | os.PathLike[str]) -> dict[str, ValidatorPowerBounds]:
    """Read per-validator power bounds, keyed by network."""
    def parse(network: str, lower_w: str, upper_w: str, source: str) -> ValidatorPowerBounds:
        return ValidatorPowerBounds(network, float(lower_w), float(upper_w), source)

    return _read_table(path, ("network", "lower_w", "upper_w", "source"), 3, parse, "bounds")


def load_profiles(
    path: str | os.PathLike[str], bounds: dict[str, ValidatorPowerBounds]
) -> dict[str, NetworkProfile]:
    """Read throughput profiles and attach each network's power bounds."""
    def parse(network: str, max_tps: str) -> NetworkProfile:
        if network not in bounds:
            raise ValueError(f"no power bounds for network {network!r}")
        return NetworkProfile(network, bounds[network], float(max_tps))

    return _read_table(path, ("network", "max_tps"), 2, parse, "profile")


def load_reported(path: str | os.PathLike[str]) -> dict[str, ReportedEstimate]:
    """Read published reference estimates used by the erratum cross-check."""
    def parse(
        name: str, global_kw: str, kwh_per_tx: str, tps: str, validators: str
    ) -> ReportedEstimate:
        return ReportedEstimate(
            name=name,
            global_kw=float(global_kw) if global_kw else None,
            kwh_per_tx=float(kwh_per_tx),
            tps=float(tps) if tps else None,
            validators=int(validators) if validators else None,
        )

    columns = ("name", "global_kw", "kwh_per_tx", "tps", "validators")
    return _read_table(path, columns, 3, parse, "estimate")


def _read_table(
    path: str | os.PathLike[str], columns: tuple[str, ...], required: int,
    parse: Callable, what: str,
) -> dict[str, Any]:
    """``parse`` of each row, keyed by its first cell; a repeated key names its row."""
    out: dict[str, Any] = {}
    keyed = _read_csv(path, columns, required, lambda *cells: (cells[0], parse(*cells)))
    for row, (key, parsed) in keyed:
        if key in out:
            raise SnapshotFormatError(f"{os.fspath(path)} row {row}: duplicate {what} for {key!r}")
        out[key] = parsed
    return out


def _read_csv(
    path: str | os.PathLike[str], columns: tuple[str, ...], required: int, parse: Callable,
    memo: OrderedDict | None = None,
):
    """Yield ``(row number, parse(*cells))``; a parse ValueError or a csv.Error names the row.

    The header must name the first ``required`` of ``columns``, and is mapped to
    positions once; a repeated name reads its last column. ``cells`` are the
    row's stripped cells in ``columns`` order, "" for a column the header
    lacks. A row too short for a column the header has fails as
    ``missing '<column>' cell``. Blank lines are skipped and not counted.

    With a ``memo``, a line found in it under the same positions yields the
    parse kept there, without csv reading it. A line csv reads is kept only
    when it alone held a whole row: a line that opens a quoted cell running on
    is not, and the lines it runs onto are never looked up. At most
    ``_MEMO_ROWS`` lines are kept, the least recently used dropped first.
    """
    try:
        # decoded whole, so an error offset counts from the start of the file; a
        # byte-order mark (Excel's "CSV UTF-8" writes one) is not part of the header
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"{os.fspath(path)}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    # split as csv splits a file opened with newline=""
    lines = iter(io.StringIO(text, newline=""))
    missed: list[str] = []  # the line the loop hands the reader next
    ended = False

    def fed():
        """The loop's missed line, then the lines its row runs onto, if any."""
        nonlocal ended
        while True:
            if missed:
                yield missed.pop()
            elif (line := next(lines, None)) is not None:
                yield line
            else:
                ended = True
                return

    # one reader for every missed line, so each row starts at a record boundary
    reader = csv.reader(fed())
    number = 1  # the row the reader is on, for errors the reader itself raises
    try:
        header = next(reader, None)
        if header is None:
            raise SnapshotFormatError(f"{os.fspath(path)}: empty file, expected a header row")
        position = {name: index for index, name in enumerate(header)}
        missing = [c for c in columns[:required] if c not in position]
        if missing:
            raise SnapshotFormatError(f"{os.fspath(path)}: missing columns {missing}")
        positions = tuple(position.get(c) for c in columns)
        width = 1 + max(p for p in positions if p is not None)
        number = 2
        for line in lines:
            if memo is not None:
                key = (positions, line)
                parsed = memo.get(key)
                if parsed is not None:
                    try:
                        memo.move_to_end(key)
                    except KeyError:  # another thread dropped it since the lookup
                        pass
                    yield number, parsed
                    number += 1
                    continue
            missed.append(line)
            start = reader.line_num
            row = next(reader)
            if not row:
                continue
            try:
                if len(row) < width:
                    short = next(
                        c for c, p in zip(columns, positions) if p is not None and p >= len(row)
                    )
                    raise ValueError(f"missing {short!r} cell")
                parsed = parse(*[row[p].strip() if p is not None else "" for p in positions])
            except ValueError as exc:
                raise SnapshotFormatError(f"{os.fspath(path)} row {number}: {exc}") from exc
            # a row that ran onto the next line, or to the end of the file inside
            # quotes, could read differently where more lines follow it
            if memo is not None and reader.line_num == start + 1 and not ended:
                memo[key] = parsed
                if len(memo) > _MEMO_ROWS:
                    memo.popitem(last=False)
            yield number, parsed
            number += 1
    except csv.Error as exc:
        raise SnapshotFormatError(f"{os.fspath(path)} row {number}: {exc}") from exc
