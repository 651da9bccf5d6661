"""Snapshot files and merge rules.

Snapshots are small CSV files with a fixed header. Rows normally carry a
validator count; rows that instead carry vote/nonvote day counts with an
empty validators cell contribute vote-ratio records only (historical rows
for which no validator count was recorded). A row may carry both, in which
case it yields an observation and a vote-ratio record.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import (
    NetworkObservation,
    NetworkProfile,
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
_REQUIRED_COLUMNS = ("network", "date", "validators", "tps")


class SnapshotFormatError(ValueError):
    """A snapshot file failed to parse; the message names the row."""


class DuplicateObservationError(SnapshotFormatError):
    """Two observation rows in one file share a (network, date) key."""


class MergeConflictError(ValueError):
    """Observation sets disagree about a (network, date) pair."""


@dataclass(frozen=True)
class Snapshot:
    """Observations plus any vote-ratio records found in the same file."""

    observations: tuple[NetworkObservation, ...]
    vote_records: tuple[VoteRatioRecord, ...]


def bundled(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(str(resources.files("posenergy").joinpath("data", name)))


def load_snapshots(path: str | os.PathLike[str]) -> Snapshot:
    """Load one snapshot CSV.

    Raises:
        SnapshotFormatError: missing header, missing columns, or a cell that
            does not parse (the message carries the row number).
        DuplicateObservationError: repeated (network, date) observation rows.
    """
    observations: list[NetworkObservation] = []
    votes: list[VoteRatioRecord] = []
    seen: set[tuple[str, dt.date]] = set()
    for number, (observation, vote) in _read_csv(path, _REQUIRED_COLUMNS, _parse_row):
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
    cell: Callable[[str], str],
) -> tuple[NetworkObservation | None, VoteRatioRecord | None]:
    network = validate_network_id(cell("network"))
    date = parse_date(cell("date"))
    tps = float(cell("tps"))
    validators_cell = cell("validators")
    nonvote_cell = cell("nonvote_per_day")
    total_cell = cell("total_per_day")
    if bool(nonvote_cell) != bool(total_cell):
        raise ValueError("nonvote_per_day and total_per_day must appear together")

    observation = None
    if validators_cell:
        observation = NetworkObservation(
            network, date, int(validators_cell), tps, provenance=cell("provenance")
        )
    elif not nonvote_cell:
        raise ValueError("validators cell is empty and no vote counts are present")

    vote = None
    if nonvote_cell:
        vote = VoteRatioRecord(
            date=date,
            nonvote_tx_per_day=int(nonvote_cell),
            total_tx_per_day=int(total_cell),
            reported_tps=tps,
        )
    return observation, vote


def merge(*observation_sets: Iterable[NetworkObservation]) -> list[NetworkObservation]:
    """Union observation sets into one canonical, sorted, duplicate-free list.

    Rows that are exactly equal collapse to one; rows sharing (network, date)
    but differing in any field are rejected, with both values reported.
    """
    buckets: dict[tuple[str, dt.date], list[NetworkObservation]] = {}
    for group in observation_sets:
        for obs in group:
            bucket = buckets.setdefault((obs.network, obs.date), [])
            if obs not in bucket:
                bucket.append(obs)
    conflicts = [
        f"({network}, {date.isoformat()}): "
        + " vs ".join(
            f"validators={o.validators} tps={o.tps!r} provenance={o.provenance!r}" for o in rows
        )
        for (network, date), rows in sorted(buckets.items())
        if len(rows) > 1
    ]
    if conflicts:
        raise MergeConflictError("conflicting observations: " + "; ".join(conflicts))
    return [rows[0] for _, rows in sorted(buckets.items())]


def write_snapshot(
    path: str | os.PathLike[str],
    observations: Iterable[NetworkObservation],
    vote_records: Iterable[VoteRatioRecord] = (),
) -> None:
    """Write the unified CSV schema; inverse of :func:`load_snapshots`.

    Rows come out in canonical order: observations sorted by (network, date),
    then any vote records that did not fold into an observation row, sorted
    by date. A vote record folds into an observation row when the two share
    a date and the reported throughput.
    """
    rows = sorted(observations, key=lambda o: (o.network, o.date))
    pending = sorted(vote_records, key=lambda v: (v.date, v.reported_tps))

    def take_match(obs: NetworkObservation) -> VoteRatioRecord | None:
        for index, record in enumerate(pending):
            if record.date == obs.date and record.reported_tps == obs.tps:
                return pending.pop(index)
        return None

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(OBSERVATION_HEADER)
        for obs in rows:
            # loading strips cells, and the csv reader of Python 3.10 refuses NUL
            if obs.provenance != obs.provenance.strip() or "\0" in obs.provenance:
                raise ValueError(f"provenance of ({obs.network}, {obs.date}) would not read back")
            vote = take_match(obs)
            writer.writerow(
                (
                    obs.network,
                    obs.date.isoformat(),
                    obs.validators,
                    repr(obs.tps),
                    vote.nonvote_tx_per_day if vote else "",
                    vote.total_tx_per_day if vote else "",
                    obs.provenance,
                )
            )
        for vote in pending:
            writer.writerow(
                (
                    "solana",
                    vote.date.isoformat(),
                    "",
                    repr(vote.reported_tps),
                    vote.nonvote_tx_per_day,
                    vote.total_tx_per_day,
                    "",
                )
            )


def load_bounds(path: str | os.PathLike[str]) -> dict[str, ValidatorPowerBounds]:
    """Read per-validator power bounds, keyed by network."""
    def parse(cell: Callable[[str], str]) -> ValidatorPowerBounds:
        return ValidatorPowerBounds(
            network=cell("network"),
            lower_w=float(cell("lower_w")),
            upper_w=float(cell("upper_w")),
            source_note=cell("source"),
        )

    return _read_table(path, ("network", "lower_w", "upper_w"), parse, "bounds")


def load_profiles(
    path: str | os.PathLike[str], bounds: dict[str, ValidatorPowerBounds]
) -> dict[str, NetworkProfile]:
    """Read throughput profiles and attach each network's power bounds."""
    def parse(cell: Callable[[str], str]) -> NetworkProfile:
        network = cell("network")
        if network not in bounds:
            raise ValueError(f"no power bounds for {network!r}")
        return NetworkProfile(network, bounds[network], float(cell("max_tps")))

    return _read_table(path, ("network", "max_tps"), parse, "profile")


def load_reported(path: str | os.PathLike[str]) -> dict[str, ReportedEstimate]:
    """Read published reference estimates used by the erratum cross-check."""
    def parse(cell: Callable[[str], str]) -> ReportedEstimate:
        tps_cell, validators_cell = cell("tps"), cell("validators")
        return ReportedEstimate(
            name=cell("name"),
            global_kw=float(cell("global_kw")),
            kwh_per_tx=float(cell("kwh_per_tx")),
            tps=float(tps_cell) if tps_cell else None,
            validators=int(validators_cell) if validators_cell else None,
        )

    return _read_table(path, ("name", "global_kw", "kwh_per_tx"), parse, "estimate")


def _read_table(
    path: str | os.PathLike[str], required: tuple[str, ...], parse: Callable, what: str
) -> dict[str, Any]:
    """``parse`` of each row, keyed by its ``required[0]`` cell; a repeated key names its row."""
    out: dict[str, Any] = {}
    keyed = _read_csv(path, required, lambda cell: (cell(required[0]), parse(cell)))
    for row, (key, parsed) in keyed:
        if key in out:
            raise SnapshotFormatError(f"{os.fspath(path)} row {row}: duplicate {what} for {key!r}")
        out[key] = parsed
    return out


def _read_csv(path: str | os.PathLike[str], required: tuple[str, ...], parse: Callable):
    """Yield ``(row number, parse(cell))``; a parse ValueError or a csv.Error names the row.

    ``cell(name)`` is the stripped cell of the current row, "" if the header lacks it.
    """
    def cell(name: str) -> str:
        value = row.get(name, "")
        if value is None:
            raise ValueError(f"missing {name!r} cell")
        return value.strip()

    try:
        # decoded whole, so an error offset counts from the start of the file
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(
            f"{os.fspath(path)}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    number = 1  # the row the reader is on, for errors the reader itself raises
    try:
        if reader.fieldnames is None:
            raise SnapshotFormatError(f"{os.fspath(path)}: empty file, expected a header row")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SnapshotFormatError(f"{os.fspath(path)}: missing columns {missing}")
        number = 2
        for row in reader:
            try:
                parsed = parse(cell)
            except ValueError as exc:
                raise SnapshotFormatError(f"{os.fspath(path)} row {number}: {exc}") from exc
            yield number, parsed
            number += 1
    except csv.Error as exc:
        raise SnapshotFormatError(f"{os.fspath(path)} row {number}: {exc}") from exc
