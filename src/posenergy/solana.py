"""Vote/nonvote throughput correction.

Solana's consensus votes are themselves transactions, so its widely reported
throughput mixes consensus overhead with user traffic. Figures comparable to
other networks keep only the nonvote share: each daily record yields the
fraction of transactions that were not votes, reported throughput is scaled
by that fraction, and the postulated maximum throughput is scaled by the
average fraction across records.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable

from .core import SECONDS_PER_DAY, Record, _check_count, _check_finite, parse_date

# The network operator's postulated peak throughput, votes included.
DEFAULT_POSTULATED_MAX_TPS = 50_000.0


class VoteRatioRecord(Record):
    """One day of transaction counts split into vote and nonvote traffic."""

    date: dt.date
    nonvote_tx_per_day: int
    total_tx_per_day: int
    reported_tps: float

    def __init__(
        self,
        date: dt.date | str,
        nonvote_tx_per_day: int,
        total_tx_per_day: int,
        reported_tps: float,
    ) -> None:
        object.__setattr__(self, "date", parse_date(date))
        nonvote = _check_count("nonvote_tx_per_day", nonvote_tx_per_day)
        total = _check_count("total_tx_per_day", total_tx_per_day, 1)
        if nonvote > total:
            raise ValueError(
                f"nonvote_tx_per_day must lie in [0, total], got {nonvote!r} of {total!r}"
            )
        object.__setattr__(self, "nonvote_tx_per_day", nonvote)
        object.__setattr__(self, "total_tx_per_day", total)
        object.__setattr__(
            self, "reported_tps", _check_finite("reported_tps", reported_tps, "non-negative")
        )


def nonvote_ratio(record: VoteRatioRecord) -> float:
    """Share of the day's transactions that were not consensus votes."""
    return record.nonvote_tx_per_day / record.total_tx_per_day


def average_tps(record: VoteRatioRecord) -> float:
    """The day's total traffic as an average rate (exact 86,400 s day)."""
    return record.total_tx_per_day / SECONDS_PER_DAY


def adjust_tps(reported_tps: float, ratio: float) -> float:
    """Scale a vote-inclusive throughput figure down to nonvote traffic."""
    reported_tps = _check_finite("reported_tps", reported_tps, "non-negative")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must lie in [0, 1], got {ratio!r}")
    return reported_tps * ratio


def nonvote_tps(record: VoteRatioRecord) -> float:
    """Nonvote throughput implied by a record's reported rate and its ratio."""
    return adjust_tps(record.reported_tps, nonvote_ratio(record))


def mean_nonvote_ratio(records: Iterable[VoteRatioRecord]) -> float:
    """Unweighted mean of the records' nonvote shares."""
    rows = list(records)
    if not rows:
        raise ValueError("no vote ratio records to average")
    return sum(nonvote_ratio(r) for r in rows) / len(rows)


def adjusted_max_tps(
    postulated_max: float, records: Iterable[VoteRatioRecord]
) -> float:
    """Scale a postulated maximum throughput by the mean nonvote share."""
    return _check_finite("postulated_max", postulated_max, "positive") * mean_nonvote_ratio(records)
