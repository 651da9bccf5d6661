"""Per-network energy estimates: contemporary point values and extrapolated bands.

A contemporary estimate prices the latest observed state of a network between
its hardware power bounds. A consumption band extends that to a whole
throughput range by replacing the observed validator count with the fitted
model's prediction at each grid point.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .baselines import BaselineBand
from .core import (
    JOULES_PER_KWH,
    NetworkObservation,
    NetworkProfile,
    Record,
    ValidatorPowerBounds,
    _check_count,
    _check_finite,
    energy_per_tx,
    global_power,
    validate_network_id,
)
from .regression import RegressionFit

DEFAULT_GRID_POINTS = 200
# Per-transaction energy diverges as throughput approaches zero; the default
# grid therefore starts just above it.
DEFAULT_MIN_TPS = 0.01

# Fewer than one whole validator cannot draw power.
_MIN_PHYSICAL_VALIDATORS = 1.0

# Relative part of the allowance for comparing against a published figure.
_PRINTED_REL_TOL = 0.005


class GridDomainError(ValueError):
    """Throughput grid empty, unsorted, or outside (0, max_tps]."""


class ContemporaryEstimate(Record):
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


class ConsumptionBand(Record):
    """Sampled lower/upper per-transaction energy over a throughput grid.

    The band is held as four equal-length columns indexed by grid position.
    ``physical`` is false where the model predicts less than one validator;
    both energy values are 0.0 there. This is the one place that checks a
    band's grid order, its column lengths and that no physical point is
    inverted.
    """

    network: str
    tps: tuple[float, ...]
    kwh_per_tx_lower: tuple[float, ...]
    kwh_per_tx_upper: tuple[float, ...]
    physical: tuple[bool, ...]

    def __init__(
        self,
        network: str,
        tps: Iterable[float],
        kwh_per_tx_lower: Iterable[float],
        kwh_per_tx_upper: Iterable[float],
        physical: Iterable[bool],
    ) -> None:
        rates, lower, upper = tuple(tps), tuple(kwh_per_tx_lower), tuple(kwh_per_tx_upper)
        physical = tuple(physical)
        if not len(rates) == len(lower) == len(upper) == len(physical):
            raise ValueError(
                f"{network}: band columns differ in length "
                f"({len(rates)}, {len(lower)}, {len(upper)}, {len(physical)})"
            )
        if not all(map(operator.lt, rates, rates[1:])):
            raise GridDomainError(f"{network}: band grid must be strictly increasing")
        if any(map(operator.gt, compress(lower, physical), compress(upper, physical))):
            tps = next(t for t, lo, up, p in zip(rates, lower, upper, physical) if p and lo > up)
            raise ValueError(f"{network}: band inverted at tps={tps!r}")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "tps", rates)
        object.__setattr__(self, "kwh_per_tx_lower", lower)
        object.__setattr__(self, "kwh_per_tx_upper", upper)
        object.__setattr__(self, "physical", physical)


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
    """Most recent observation for a network."""
    candidates = [o for o in observations if o.network == network]
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
        raise GridDomainError(f"{profile.network}: grid needs at least 2 points, got {n_points}")
    if not 0 < min_tps < profile.max_tps:
        raise GridDomainError(
            f"{profile.network}: min_tps must lie in (0, {profile.max_tps!r}), got {min_tps!r}"
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
    clamped to zero. Each value is computed with the arithmetic of
    :func:`~posenergy.regression.predict_validators` and
    :func:`~posenergy.core.energy_per_tx`. The fit and the grid's domain
    are checked before the loop; the grid's order is checked by
    :class:`ConsumptionBand`, and overflow on the built band.

    Raises:
        GridDomainError: the grid is empty, unsorted, or leaves (0, max_tps].
        ValueError: fit and profile disagree on the network, the fit's
            coefficients are not finite, or a band value overflows.
    """
    network = profile.network
    if fit.network != network:
        raise ValueError(
            f"fit for {fit.network!r} evaluated against profile for {network!r}"
        )
    intercept = _check_finite(f"{network}: fit intercept", fit.intercept)
    slope = _check_finite(f"{network}: fit slope", fit.slope)
    w_lower, w_upper = profile.bounds.lower_w, profile.bounds.upper_w
    max_tps = profile.max_tps
    outside = f"grid values must lie in (0, {max_tps!r}] for {network!r}"
    try:
        rates = list(map(float, grid))
    except OverflowError:  # an int too large for a float
        raise GridDomainError(outside) from None
    if not rates:
        raise GridDomainError("empty throughput grid")
    # NaN compares false, so min and max either return it (refused here) or pass
    # over it to ConsumptionBand's order check; no rate <= 0 reaches the division.
    if not 0 < min(rates) or not max(rates) <= max_tps:
        raise GridDomainError(outside)

    lower: list[float] = []
    upper: list[float] = []
    physical: list[bool] = []
    for rate in rates:
        predicted = intercept + slope * rate
        if predicted < _MIN_PHYSICAL_VALIDATORS:
            lower.append(0.0)
            upper.append(0.0)
            physical.append(False)
        else:
            joules = rate * JOULES_PER_KWH
            lower.append((predicted * w_lower) / joules)
            upper.append((predicted * w_upper) / joules)
            physical.append(True)
    band = ConsumptionBand(network, rates, lower, upper, physical)  # checks the grid's order
    # lower <= upper pointwise, so a finite upper column bounds the lower one.
    if not all(map(math.isfinite, upper)):
        where = next(i for i, v in enumerate(upper) if not math.isfinite(v))
        raise ValueError(
            f"{network}: band value overflows at tps={rates[where]!r} "
            f"(fit intercept {intercept!r}, slope {slope!r})"
        )
    return band


class ReportedEstimate(Record):
    """A published mid-bound figure, kept for cross-checking our arithmetic.

    ``name`` is the network or baseline the figure is published for.
    """

    name: str
    global_kw: float
    kwh_per_tx: float
    tps: float | None
    validators: int | None

    def __init__(
        self,
        name: str,
        global_kw: float,
        kwh_per_tx: float,
        tps: float | None = None,
        validators: int | None = None,
    ) -> None:
        object.__setattr__(self, "name", validate_network_id(name))
        for field, value in (("global_kw", global_kw), ("kwh_per_tx", kwh_per_tx), ("tps", tps)):
            if value is not None:
                value = _check_finite(field, value, "non-negative", name)
            object.__setattr__(self, field, value)
        if validators is not None:
            validators = _check_count("validators", validators)
        object.__setattr__(self, "validators", validators)


# The published quantities the errata checks compare, each with the decimals
# ``reported_estimates.csv`` prints it with.
_PRINTED_DECIMALS = {"global_kw": 2, "kwh_per_tx": 6}


class Erratum(Record):
    """A published figure that its own inputs do not reproduce.

    ``quantity`` is the :class:`ReportedEstimate` field that was compared:
    ``global_kw`` (mid-bound global power) or ``kwh_per_tx`` (the midpoint of
    a baseline's per-transaction bounds).
    """

    network: str
    quantity: str
    reported: float
    computed: float


def printed_tolerance(reported: float, decimals: int) -> float:
    """Allowance for comparing against a value printed with fixed decimals.

    Combines a relative tolerance with half a unit in the last printed place,
    so values the source rounded heavily still compare fairly.
    """
    return max(_PRINTED_REL_TOL * abs(reported), 0.5 * 10.0 ** -decimals)


def _errata(
    quantity: str, computed: Iterable[tuple[str, float]], reported: Mapping[str, ReportedEstimate]
) -> list[Erratum]:
    """An erratum for each ``(network, value)`` whose published ``quantity`` it misses.

    A value misses when it lies outside :func:`printed_tolerance` of the
    published figure at that quantity's printed decimals; networks without a
    published row are skipped.
    """
    decimals = _PRINTED_DECIMALS[quantity]
    errata = []
    for network, value in computed:
        row = reported.get(network)
        if row is None:
            continue
        published = getattr(row, quantity)
        if abs(value - published) > printed_tolerance(published, decimals):
            errata.append(Erratum(network, quantity, published, value))
    return errata


def find_errata(
    estimates: Iterable[ContemporaryEstimate], reported: Mapping[str, ReportedEstimate]
) -> list[Erratum]:
    """Published global power that each estimate's mid bound does not reproduce, by network."""
    ordered = sorted(estimates, key=lambda e: e.network)
    return _errata("global_kw", [(e.network, e.global_kw_mid) for e in ordered], reported)


def find_baseline_errata(
    bands: Iterable[BaselineBand], reported: Mapping[str, ReportedEstimate]
) -> list[Erratum]:
    """Published kWh/tx that the midpoint of each baseline's computed bounds does not reproduce."""
    return _errata("kwh_per_tx", [(b.name, b.kwh_per_tx_mid) for b in bands], reported)
