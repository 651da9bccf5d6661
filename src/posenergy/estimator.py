"""Per-network energy estimates: contemporary point values and extrapolated bands.

A contemporary estimate prices the latest observed state of a network between
its hardware power bounds. A consumption band extends that to a whole
throughput range by replacing the observed validator count with the fitted
model's prediction at each grid point.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    energy_per_tx,
    global_power,
)
from .regression import RegressionFit, predict_validators

DEFAULT_GRID_POINTS = 200
# Per-transaction energy diverges as throughput approaches zero; the default
# grid therefore starts just above it.
DEFAULT_MIN_TPS = 0.01

# Fewer than one whole validator cannot draw power.
_MIN_PHYSICAL_VALIDATORS = 1.0


class GridDomainError(ValueError):
    """Throughput grid empty, unsorted, or outside (0, max_tps]."""


@dataclass(frozen=True)
class ContemporaryEstimate:
    """Energy figures at a network's latest observation, lower/mid/upper."""

    network: str
    date: dt.date
    validators: int
    tps: float
    global_kw_lower: float
    global_kw_mid: float
    global_kw_upper: float
    kwh_per_tx_lower: float
    kwh_per_tx_mid: float
    kwh_per_tx_upper: float


@dataclass(frozen=True)
class BandPoint:
    tps: float
    kwh_per_tx_lower: float
    kwh_per_tx_upper: float
    physical: bool


@dataclass(frozen=True)
class ConsumptionBand:
    """Sampled lower/upper per-transaction energy over a throughput grid."""

    network: str
    points: tuple[BandPoint, ...]

    def __post_init__(self) -> None:
        rates = [p.tps for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("band grid must be strictly increasing")
        for p in self.points:
            if p.physical and p.kwh_per_tx_lower > p.kwh_per_tx_upper:
                raise ValueError(f"band inverted at tps={p.tps!r}")


def contemporary_estimate(
    observation: NetworkObservation, bounds: ValidatorPowerBounds
) -> ContemporaryEstimate:
    """Price one observation between its network's hardware bounds.

    Raises:
        ValueError: observation and bounds disagree on the network, or the
            observation has zero throughput (no per-transaction figure exists).
    """
    if observation.network != bounds.network:
        raise ValueError(
            f"observation for {observation.network!r} priced with bounds for {bounds.network!r}"
        )
    if observation.tps <= 0:
        raise ValueError(
            f"{observation.network!r} observation has zero throughput; "
            "per-transaction energy is undefined"
        )
    n = float(observation.validators)
    draws = (bounds.lower_w, bounds.mid_w, bounds.upper_w)
    kw = [global_power(n, w) for w in draws]
    kwh = [energy_per_tx(n, w, observation.tps) for w in draws]
    return ContemporaryEstimate(
        network=observation.network,
        date=observation.date,
        validators=observation.validators,
        tps=observation.tps,
        global_kw_lower=kw[0],
        global_kw_mid=kw[1],
        global_kw_upper=kw[2],
        kwh_per_tx_lower=kwh[0],
        kwh_per_tx_mid=kwh[1],
        kwh_per_tx_upper=kwh[2],
    )


def latest_observation(
    observations: Iterable[NetworkObservation], network: str
) -> NetworkObservation:
    """Most recent non-synthetic observation for a network."""
    candidates = [o for o in observations if o.network == network and not o.synthetic]
    if not candidates:
        raise ValueError(f"no observations for network {network!r}")
    return max(candidates, key=lambda o: o.date)


def default_grid(
    profile: NetworkProfile,
    n_points: int = DEFAULT_GRID_POINTS,
    min_tps: float = DEFAULT_MIN_TPS,
) -> list[float]:
    """Log-spaced throughput grid from ``min_tps`` to the profile's maximum.

    Both endpoints are exactly the requested values; the interior points are
    evenly spaced in log10.
    """
    if n_points < 2:
        raise GridDomainError(f"grid needs at least 2 points, got {n_points}")
    if not 0 < min_tps < profile.max_tps:
        raise GridDomainError(
            f"min_tps must lie in (0, {profile.max_tps!r}), got {min_tps!r}"
        )
    start = math.log10(min_tps)
    step = (math.log10(profile.max_tps) - start) / (n_points - 1)
    grid = [10.0 ** (i * step + start) for i in range(n_points)]
    grid[0] = min_tps
    grid[-1] = profile.max_tps
    return grid


def consumption_band(
    fit: RegressionFit, profile: NetworkProfile, grid: Sequence[float]
) -> ConsumptionBand:
    """Evaluate the fitted model across a grid, between the hardware bounds.

    Where the model predicts less than one validator the point is flagged
    non-physical and both band values are reported with the prediction
    clamped to zero.
    """
    if fit.network != profile.network:
        raise ValueError(
            f"fit for {fit.network!r} evaluated against profile for {profile.network!r}"
        )
    rates = [float(v) for v in grid]
    if not rates:
        raise GridDomainError("empty throughput grid")
    if any(r <= 0 or r > profile.max_tps for r in rates):
        raise GridDomainError(
            f"grid values must lie in (0, {profile.max_tps!r}] for {profile.network!r}"
        )
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise GridDomainError("grid must be strictly increasing")

    points = []
    for rate in rates:
        predicted = predict_validators(fit, rate)
        if predicted < _MIN_PHYSICAL_VALIDATORS:
            points.append(BandPoint(rate, 0.0, 0.0, physical=False))
        else:
            points.append(
                BandPoint(
                    rate,
                    energy_per_tx(predicted, profile.bounds.lower_w, rate),
                    energy_per_tx(predicted, profile.bounds.upper_w, rate),
                    physical=True,
                )
            )
    return ConsumptionBand(fit.network, tuple(points))


@dataclass(frozen=True)
class ReportedEstimate:
    """A published mid-bound figure, kept for cross-checking our arithmetic."""

    name: str
    global_kw: float
    kwh_per_tx: float
    tps: float | None = None
    validators: int | None = None


@dataclass(frozen=True)
class Erratum:
    """A published row whose global power disagrees with its own inputs."""

    network: str
    reported_kw: float
    computed_kw: float


def printed_tolerance(reported: float, decimals: int, rel_tol: float = 0.005) -> float:
    """Allowance for comparing against a value printed with fixed decimals.

    Combines a relative tolerance with half a unit in the last printed place,
    so values the source rounded heavily still compare fairly.
    """
    return max(rel_tol * abs(reported), 0.5 * 10.0 ** -decimals)


def find_errata(
    estimates: Iterable[ContemporaryEstimate],
    reported: Mapping[str, ReportedEstimate],
    rel_tol: float = 0.005,
) -> list[Erratum]:
    """Flag published rows whose global power cannot be reproduced.

    Each estimate's mid-bound global power (validator count times mid power
    draw) is compared against the published figure for the same network;
    rows outside :func:`printed_tolerance` are returned.
    """
    errata = []
    for est in sorted(estimates, key=lambda e: e.network):
        row = reported.get(est.network)
        if row is None:
            continue
        tol = printed_tolerance(row.global_kw, decimals=2, rel_tol=rel_tol)
        if abs(est.global_kw_mid - row.global_kw) > tol:
            errata.append(Erratum(est.network, row.global_kw, est.global_kw_mid))
    return errata
