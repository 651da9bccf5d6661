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
import io
import os
from operator import attrgetter
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
# An observation's (network, date) key, by which the writer sorts and the
# reader refuses repeats.
_key = attrgetter("network", "date")


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


# The last file write_snapshot wrote, and nothing of any earlier one: its bytes,
# the Snapshot they load as (None where a load must parse them), and each of its
# observations' lines.
_last_written: tuple[bytes, Snapshot | None, dict[NetworkObservation, str]] = (b"", None, {})


def bundled(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).with_name("data") / name


def load_snapshots(path: str | os.PathLike[str]) -> Snapshot:
    """Load one snapshot CSV.

    A file whose bytes are those :func:`write_snapshot` wrote last, at any
    path, returns the Snapshot it wrote, the same object on every load, which
    is safe because records and tuples are frozen. Any other file is parsed.
    Repeated (network, date) rows are refused on every load, each naming its
    file and row.

    Raises:
        SnapshotFormatError: missing header, missing columns, or a cell that
            does not parse (the message carries the row number).
        DuplicateObservationError: repeated (network, date) observation rows.
    """
    data = Path(path).read_bytes()
    written, snapshot, _ = _last_written
    if snapshot is not None and data == written:
        return snapshot
    observations: list[NetworkObservation] = []
    votes: list[VoteRatioRecord] = []
    seen: set[tuple[str, dt.date]] = set()
    for number, (observation, vote) in _read_csv(path, data, OBSERVATION_HEADER, 4, _parse_row):
        if observation is not None:
            key = _key(observation)
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

    An observation written by the last write takes its line from there, so a
    refresh that rewrites a window formats only its new rows. Once the file is
    written, the module keeps its bytes, its lines and, when no (network, date)
    repeats and every record is of its exact class, the Snapshot that loading
    those bytes gives: the records, sorted, in file order. Only the last write
    is kept, and the next write frees it. For a 250-day window of 14 networks
    (3,500 lines, a 215 kB file) that is 0.78 MB beyond the records themselves,
    measured with tracemalloc. Every line is built, and the text encoded, before
    the file is opened, so a refused write, or one whose text has no UTF-8
    form, leaves an existing file, and what is kept, as they were.
    """
    global _last_written
    rows = sorted(observations, key=_key)
    votes = sorted(vote_records, key=lambda v: (v.date, v.reported_tps))
    known = _last_written[2]
    lines = [known.get(obs) or _observation_line(obs) for obs in rows]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(OBSERVATION_HEADER)
    text.writelines(lines)
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
    # a record of a subclass is unequal to the one its row parses as, and a
    # repeated key must fail at every load
    exact = set(map(type, rows)) <= {NetworkObservation}
    unique = len(set(map(_key, rows))) == len(rows)
    if exact and unique and set(map(type, votes)) <= {VoteRatioRecord}:
        snapshot = Snapshot(tuple(rows), tuple(votes))
    else:
        snapshot = None
    _last_written = (data, snapshot, dict(zip(rows, lines)) if exact else {})


def _observation_line(obs: NetworkObservation) -> str:
    """One observation's snapshot line, as :mod:`csv` quotes it.

    A function of the record's fields alone, so equal records print alike,
    since a record stores a zero throughput as ``0.0``.
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
    keyed = _read_csv(
        path, Path(path).read_bytes(), columns, required, lambda *cells: (cells[0], parse(*cells))
    )
    for row, (key, parsed) in keyed:
        if key in out:
            raise SnapshotFormatError(f"{os.fspath(path)} row {row}: duplicate {what} for {key!r}")
        out[key] = parsed
    return out


def _read_csv(
    path: str | os.PathLike[str], data: bytes, columns: tuple[str, ...], required: int,
    parse: Callable,
):
    """Yield ``(row number, parse(*cells))`` of the file ``data``, read from ``path``.

    A parse ValueError or a csv.Error names the path and the row. The header
    must name the first ``required`` of ``columns``, and is mapped to
    positions once; a repeated name reads its last column. ``cells`` are the
    row's stripped cells in ``columns`` order, "" for a column the header
    lacks. A row too short for a column the header has fails as
    ``missing '<column>' cell``. Blank lines are skipped and not counted.
    """
    try:
        # decoded whole, so an error offset counts from the start of the file; a
        # byte-order mark (Excel's "CSV UTF-8" writes one) is not part of the header
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"{os.fspath(path)}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    reader = csv.reader(io.StringIO(text, newline=""))
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
        for row in reader:
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
            yield number, parsed
            number += 1
    except csv.Error as exc:
        raise SnapshotFormatError(f"{os.fspath(path)} row {number}: {exc}") from exc
