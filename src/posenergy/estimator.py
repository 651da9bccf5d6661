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
from bisect import bisect_left
from itertools import groupby, islice
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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

if TYPE_CHECKING:  # importing baselines would load configparser for every command
    from .baselines import BaselineBand

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
    ``physical`` is false where the model predicts less than one validator
    (:func:`consumption_band` puts 0.0 in both energy columns there). This
    is the one place that checks a band, so no consumer does: the grid is
    non-empty, strictly increasing, positive and finite; every energy value
    is finite; and at each physical point ``0 < lower <= upper``.

    The flags are split into runs once, here, and this is also the one
    place that decides whether a run is flat: its lower values share one bit
    pattern, and so do its upper values (``-0.0`` is not ``0.0``). A flat
    physical run is checked at its first point, since every other point
    holds the same values; any other run is checked over all of its points.
    :meth:`runs` hands out the stored runs and :meth:`run_flatness` their
    flatness, which the chart CSV and the SVG read instead of testing the
    values again. Every run of the 14 bundled bands is flat; in the bench's
    library-sweep no physical run is, and only the all-``0.0`` non-physical
    runs are.
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
        if not rates:
            raise GridDomainError(f"{network}: empty throughput grid")
        if not all(map(operator.lt, rates, islice(rates, 1, None))):
            raise GridDomainError(f"{network}: band grid must be strictly increasing")
        try:  # the ends bound an increasing grid
            for end in (rates[0], rates[-1]):
                _check_finite(f"{network}: band tps", end, "positive")
        except ValueError as exc:
            raise GridDomainError(str(exc)) from None
        runs = []
        flat = []
        start = 0
        for flag, group in groupby(physical):  # counted by groupby's own equality
            stop = start + operator.countOf(group, flag)
            runs.append((flag, start, stop))
            flat.append(_one_value(lower, start, stop) and _one_value(upper, start, stop))
            start = stop
        # A sum is finite only if every value is. One that overflows, or holds an
        # int beyond float range, sends the values to the walk below to be named.
        try:
            finite = math.isfinite(sum(lower) + sum(upper))
        except OverflowError:
            finite = False
        if not finite or any(
            (lower[start] <= 0 or lower[start] > upper[start]) if one
            else (
                min(lower[start:stop]) <= 0
                or any(map(operator.gt, lower[start:stop], upper[start:stop]))
            )
            for (flag, start, stop), one in zip(runs, flat)
            if flag
        ):  # some point is refused: name the first
            for rate, lo, up, flag in zip(rates, lower, upper, physical):
                name = f"{network}: band value at tps={rate!r}"
                for value in (lo, up):
                    _check_finite(name, value, "positive" if flag else "")
                if flag and lo > up:
                    raise ValueError(f"{network}: band inverted at tps={rate!r}")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "tps", rates)
        object.__setattr__(self, "kwh_per_tx_lower", lower)
        object.__setattr__(self, "kwh_per_tx_upper", upper)
        object.__setattr__(self, "physical", physical)
        # not fields: both are derived from the columns
        object.__setattr__(self, "_runs", tuple(runs))
        object.__setattr__(self, "_flat", tuple(flat))

    def runs(self) -> list[tuple[bool, int, int]]:
        """Each maximal run of equal ``physical`` flags, as ``(flag, start, stop)`` in grid order.

        ``stop`` is exclusive, so the runs tile ``range(len(self.tps))``. The
        runs are found at construction; each call returns a new list of them.
        """
        return list(self._runs)

    def run_flatness(self) -> tuple[bool, ...]:
        """Whether each run of :meth:`runs`, in its order, is flat.

        A run is flat when its lower values all have one bit pattern and its
        upper values all have one, so the run's first point gives every
        value of it (a run of one point is flat). Decided once, at
        construction.
        """
        return self._flat


def _one_value(column: tuple[float, ...], start: int, stop: int) -> bool:
    """Whether ``column[start:stop]`` holds one bit pattern.

    Values are compared by ``==``; ``tuple.count`` matches a float shared by
    the run by identity, without comparing it. Of equal finite floats only
    the zeros differ in bits, so a run of zeros is also compared by sign. A
    NaN equals nothing, so a run holding one is not flat.
    """
    first = column[start]
    if first != column[stop - 1]:  # settles a monotone run without a walk
        return False
    run = column[start:stop]
    if run.count(first) != len(run):
        return False
    if first == 0:
        sign = math.copysign(1.0, first)
        return all(math.copysign(1.0, value) == sign for value in run)
    return True


def contemporary_estimate(
    observation: NetworkObservation, bounds: ValidatorPowerBounds
) -> ContemporaryEstimate:
    """Price one observation between its network's hardware bounds.

    Raises:
        ValueError: observation and bounds disagree on the network, or the
            observation's tps is zero, where no per-transaction figure exists.
    """
    if observation.network != bounds.network:
        raise ValueError(
            f"observation for {observation.network!r} priced with bounds for {bounds.network!r}"
        )
    tps = _check_finite("tps", observation.tps, "positive", observation.network)
    n = float(observation.validators)
    draws = (bounds.lower_w, bounds.mid_w, bounds.upper_w)
    kw = [global_power(n, w) for w in draws]
    kwh = [energy_per_tx(n, w, tps) for w in draws]
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
    interior = [10.0 ** (i * step + start) for i in range(1, n_points - 1)]
    return [min_tps, *interior, profile.max_tps]


def consumption_band(
    fit: RegressionFit, profile: NetworkProfile, grid: Sequence[float]
) -> ConsumptionBand:
    """Evaluate the fitted model across a grid, between the hardware bounds.

    Where the model predicts less than one validator the point is flagged
    non-physical and both band values are reported with the prediction
    clamped to zero. Each value has the shape of
    :func:`~posenergy.core.energy_per_tx`: a structure factor, the fitted
    validators per unit of throughput (``intercept / tps + slope``), times a
    hardware factor (``w / 3.6e6``) formed once per bound. Before the values
    are built only the fit's coefficients and the grid's (0, max_tps] domain,
    which guards the division, are checked; :class:`ConsumptionBand` checks
    the rest.

    The band is built a run at a time. The non-physical flag, ``intercept +
    slope * tps < 1``, is monotone in ``tps`` since rounding is, so on an
    increasing grid the physical points are one run, a suffix when ``slope
    >= 0`` and a prefix otherwise, and one bisection finds its boundary. (An
    unsorted grid gets some split, and the band refuses the grid.) With
    ``intercept == 0``, of either sign, the structure factor is ``slope``
    bit for bit at every physical point, so each column of the physical run
    is one float shared by every point. That is not a second model path: it
    yields the column that pricing each point gives. It is taken by 14 of
    the 14 bundled bands and by none of the 14 in the bench's library-sweep,
    whose least-squares fits all have an intercept; every other fit prices
    each point of its run. A non-physical run is one shared ``0.0``.

    The grid and every column are built as tuples, so the band keeps them
    as they are, and a column of shared floats is found flat by identity
    at each point.

    Raises:
        GridDomainError: the grid is empty, unsorted, or leaves (0, max_tps].
        ValueError: fit and profile disagree on the network, the fit's
            coefficients are not finite, or a band value's exact kWh/tx, or
            one factor alone, leaves float range (the value overflows, or
            underflows to 0.0).
    """
    network = profile.network
    if fit.network != network:
        raise ValueError(
            f"fit for {fit.network!r} evaluated against profile for {network!r}"
        )
    intercept = _check_finite(f"{network}: fit intercept", fit.intercept)
    slope = _check_finite(f"{network}: fit slope", fit.slope)
    k_lower = profile.bounds.lower_w / JOULES_PER_KWH
    k_upper = profile.bounds.upper_w / JOULES_PER_KWH
    max_tps = profile.max_tps
    outside = f"grid values must lie in (0, {max_tps!r}] for {network!r}"
    try:
        rates = tuple(map(float, grid))
    except OverflowError:  # an int too large for a float
        raise GridDomainError(outside) from None
    if rates and not (0 < min(rates) and max(rates) <= max_tps):  # the band refuses ()
        raise GridDomainError(outside)

    def below_one(rate: float) -> bool:
        return intercept + slope * rate < _MIN_PHYSICAL_VALIDATORS

    n = len(rates)
    if slope >= 0:  # the physical points are a suffix
        start, stop = bisect_left(rates, True, key=lambda rate: not below_one(rate)), n
    else:  # a prefix
        start, stop = 0, bisect_left(rates, True, key=below_one)
    if intercept == 0:  # at a physical point intercept / tps + slope is slope, bit for bit
        lower = (slope * k_lower,) * (stop - start)
        upper = (slope * k_upper,) * (stop - start)
    else:
        per_tps = [intercept / rate + slope for rate in rates[start:stop]]
        lower = tuple([value * k_lower for value in per_tps])
        upper = tuple([value * k_upper for value in per_tps])
    before, after = (0.0,) * start, (0.0,) * (n - stop)
    return ConsumptionBand(
        network,
        rates,
        before + lower + after,
        before + upper + after,
        (False,) * start + (True,) * (stop - start) + (False,) * (n - stop),
    )


class ReportedEstimate(Record):
    """A published mid-bound figure, kept for cross-checking our arithmetic.

    ``name`` is the network or baseline the figure is published for.
    ``global_kw``, ``tps`` and ``validators`` are None where none is published.
    """

    name: str
    global_kw: float | None
    kwh_per_tx: float
    tps: float | None
    validators: int | None

    def __init__(
        self,
        name: str,
        global_kw: float | None,
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
            validators = _check_count("validators", validators, owner=name)
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
    published row, or whose row lacks the figure, are skipped.
    """
    decimals = _PRINTED_DECIMALS[quantity]
    errata = []
    for network, value in computed:
        figure = getattr(reported.get(network), quantity, None)
        if figure is not None and abs(value - figure) > printed_tolerance(figure, decimals):
            errata.append(Erratum(network, quantity, figure, value))
    return errata


def find_errata(
    estimates: Iterable[ContemporaryEstimate], reported: Mapping[str, ReportedEstimate]
) -> list[Erratum]:
    """Published global power that each estimate's mid bound does not reproduce, by network."""
    ordered = sorted(estimates, key=lambda e: e.network)
    return _errata("global_kw", [(e.network, e.global_kw_mid) for e in ordered], reported)


def find_input_mismatches(
    estimates: Iterable[ContemporaryEstimate], reported: Mapping[str, ReportedEstimate]
) -> list[tuple[ReportedEstimate, ContemporaryEstimate]]:
    """Each published row stating another validator count or throughput than its estimate's.

    :func:`find_errata` prices a published row at its network's observation,
    so a row stated for other inputs is checked against figures it does not
    describe. A field the row leaves empty is not compared. In network order.
    """
    pairs = []
    for estimate in sorted(estimates, key=lambda e: e.network):
        row = reported.get(estimate.network)
        if row is not None and any(
            stated is not None and stated != observed
            for stated, observed in ((row.validators, estimate.validators), (row.tps, estimate.tps))
        ):
            pairs.append((row, estimate))
    return pairs


def find_baseline_errata(
    bands: Iterable[BaselineBand], reported: Mapping[str, ReportedEstimate]
) -> list[Erratum]:
    """Published kWh/tx that the midpoint of each baseline's computed bounds does not reproduce."""
    return _errata("kwh_per_tx", [(b.name, b.kwh_per_tx_mid) for b in bands], reported)
