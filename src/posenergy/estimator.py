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
import sys
from bisect import bisect_left
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

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


# The exponent step, per unit of exponent magnitude, that proves a LogGrid increasing.
_PROVEN_STEP = 2.0**-40


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


class LogGrid(Record):
    """The log-spaced throughput grid of :func:`default_grid`, a sequence computed on demand.

    Item ``i`` is ``10.0 ** (i * step + start)``, where ``start`` is
    ``log10(min_tps)`` and ``step`` is ``(log10(max_tps) - start) /
    (n_points - 1)``, except that the first item is ``min_tps`` and the last
    ``max_tps``, exactly. The grid supports ``len``, indices of either sign,
    slices (a tuple) and iteration; a slice or an iteration computes its
    items in one comprehension.

    Raises:
        ValueError: ``min_tps`` or ``max_tps`` is not finite and positive, or
            ``n_points`` is not a count of at least 2.
    """

    min_tps: float
    max_tps: float
    n_points: int

    def __init__(self, min_tps: float, max_tps: float, n_points: int) -> None:
        for name, value in (("min_tps", min_tps), ("max_tps", max_tps)):
            object.__setattr__(self, name, _check_finite(name, value, "positive"))
        object.__setattr__(self, "n_points", _check_count("n_points", n_points, 2))
        # not fields: both follow from the ends and the count
        object.__setattr__(self, "start", math.log10(self.min_tps))
        step = (math.log10(self.max_tps) - self.start) / (self.n_points - 1)
        object.__setattr__(self, "step", step)

    def __len__(self) -> int:
        return self.n_points

    def __getitem__(self, index: int | slice) -> float | tuple[float, ...]:
        if isinstance(index, slice):
            return self._items(range(self.n_points)[index])
        i = range(self.n_points)[index]  # a negative index counts from the end; IndexError past it
        if 0 < i < self.n_points - 1:
            return 10.0 ** (i * self.step + self.start)
        return self.min_tps if i == 0 else self.max_tps

    def __iter__(self) -> Iterator[float]:
        return iter(self._items(range(self.n_points)))

    def _items(self, indices: range) -> tuple[float, ...]:
        """The items at ``indices``; an exact end can only open or close the range."""
        ends = (0, self.n_points - 1)
        head = tail = ()
        if indices and indices[0] in ends:
            head, indices = (self[indices[0]],), indices[1:]
        if indices and indices[-1] in ends:
            tail, indices = (self[indices[-1]],), indices[:-1]
        start, step = self.start, self.step
        return head + tuple([10.0 ** (i * step + start) for i in indices]) + tail

    def increasing(self) -> bool:
        """Whether the items are proven strictly increasing, without computing them.

        The proof needs a normal ``min_tps`` below a finite ``max_tps`` and
        ``step >= 2**-40 * M``, where ``M`` is ``max(1, |log10 min_tps|,
        |log10 max_tps|)``. Let ``u`` be ``2**-53``. Each interior exponent
        ``i * step + start`` is within ``3 * M * u`` of its exact value, the
        computed ``step`` adds ``4 * M * u`` over the grid's span, and a libm
        whose ``log10`` and ``pow`` err by ``c`` ulp adds ``4 * c * M * u``
        more. So every item lies strictly above the one before, the exact
        ends included, once ``step`` exceeds ``(8 + 4 * c) * M * u``. The
        bound is ``2**13 * M * u``, which covers any ``c`` under 2,000.
        False means only that the grid must be walked.
        """
        magnitude = max(1.0, abs(self.start), abs(math.log10(self.max_tps)))
        return (
            sys.float_info.min <= self.min_tps < self.max_tps <= sys.float_info.max
            and self.step >= _PROVEN_STEP * magnitude
        )


class ConsumptionBand(Record):
    """A fit's lower/upper per-transaction energy over a throughput grid, computed on demand.

    ``ConsumptionBand(fit, profile, grid)`` keeps what fixes every value:
    the fit's ``intercept`` and ``slope``, the hardware factor ``w / 3.6e6``
    of each power bound (``hardware_lower``, ``hardware_upper``) and the
    ``grid``. At a grid point where the fit predicts one validator or more,
    each value has the shape of :func:`~posenergy.core.energy_per_tx`: the
    validators per unit of throughput, ``intercept / tps + slope``, times
    its hardware factor. Elsewhere the point is non-physical and both
    values are ``0.0``. :meth:`kwh_per_tx_at` computes the values at any
    physical points.

    The flag ``intercept + slope * tps < 1`` is monotone in ``tps``, since
    rounding is, so on an increasing grid the physical points are one run,
    a suffix when ``slope >= 0`` and a prefix otherwise. One bisection finds
    it, and ``physical_run`` is its ``(start, stop)``, ``stop`` exclusive.

    Building the band is its one check, so no consumer makes another: the
    coefficients are finite, the grid is non-empty, strictly increasing and
    in (0, max_tps] (see :func:`_checked_grid`), and each physical value is
    finite, with ``0 < lower <= upper``. Dividing by ``tps``, adding
    ``slope`` and multiplying by a fixed factor each keep or reverse order
    under rounding, so each edge is monotone over the physical run, and
    the values are checked at its two ends. That decides ``lower <= upper``
    too when ``0 <= hardware_lower <= hardware_upper``, as every profile's
    bounds give, since ``intercept / tps + slope`` is then positive at both
    ends and so between them. Only a refused band walks its points, to
    name the first one refused.

    Raises:
        GridDomainError: the grid is empty, unsorted, or leaves (0, max_tps].
        ValueError: fit and profile disagree on the network, the fit's
            coefficients are not finite, or a band value's exact kWh/tx, or
            one factor alone, leaves float range (the value overflows, or
            underflows to 0.0).
    """

    network: str
    intercept: float
    slope: float
    hardware_lower: float
    hardware_upper: float
    grid: Sequence[float]

    def __init__(self, fit: RegressionFit, profile: NetworkProfile, grid: Sequence[float]) -> None:
        network = profile.network
        if fit.network != network:
            raise ValueError(f"fit for {fit.network!r} evaluated against profile for {network!r}")
        intercept = _check_finite(f"{network}: fit intercept", fit.intercept)
        slope = _check_finite(f"{network}: fit slope", fit.slope)
        grid = _checked_grid(network, grid, profile.max_tps)

        def below_one(rate: float) -> bool:
            return intercept + slope * rate < _MIN_PHYSICAL_VALIDATORS

        if slope >= 0:  # the physical points are a suffix
            start, stop = bisect_left(grid, True, key=lambda rate: not below_one(rate)), len(grid)
        else:  # a prefix
            start, stop = 0, bisect_left(grid, True, key=below_one)
        hardware = [w / JOULES_PER_KWH for w in (profile.bounds.lower_w, profile.bounds.upper_w)]
        for field, value in zip(self._fields, (network, intercept, slope, *hardware, grid)):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "physical_run", (start, stop))  # not a field: it follows from them
        if start == stop:
            return
        lower, upper = self.kwh_per_tx_at((grid[start], grid[stop - 1]))
        if not (
            0 <= self.hardware_lower <= self.hardware_upper
            and all(0 < lo <= up < math.inf for lo, up in zip(lower, upper))
        ):
            run = grid[start:stop]  # some point is refused: name the first
            for rate, lo, up in zip(run, *self.kwh_per_tx_at(run)):
                for value in (lo, up):
                    _check_finite(f"{network}: band value at tps={rate!r}", value, "positive")
                if lo > up:
                    raise ValueError(f"{network}: band inverted at tps={rate!r}")

    def kwh_per_tx_at(self, rates: Iterable[float]) -> tuple[list[float], list[float]]:
        """The lower and the upper kWh/tx at each of ``rates``, physical throughputs of the band."""
        per_tps = [self.intercept / rate + self.slope for rate in rates]
        return (
            [value * self.hardware_lower for value in per_tps],
            [value * self.hardware_upper for value in per_tps],
        )


def _checked_grid(network: str, grid: Sequence[float], max_tps: float) -> Sequence[float]:
    """``grid`` as a band keeps it, once it is non-empty, strictly increasing and in (0, max_tps].

    A :class:`LogGrid` that is proven increasing is kept, and its exact ends
    are its domain. Any other grid becomes a tuple of floats, is refused if
    its least or greatest value leaves the domain, and is then walked.
    """
    outside = f"grid values must lie in (0, {max_tps!r}] for {network!r}"
    if isinstance(grid, LogGrid) and grid.increasing():  # min_tps > 0 is part of the proof
        if not grid.max_tps <= max_tps:
            raise GridDomainError(outside)
        return grid
    try:
        rates = tuple(map(float, grid))
    except OverflowError:  # an int too large for a float
        raise GridDomainError(outside) from None
    if not rates:
        raise GridDomainError(f"{network}: empty throughput grid")
    if not (0 < min(rates) and max(rates) <= max_tps):
        raise GridDomainError(outside)
    if not all(map(operator.lt, rates, islice(rates, 1, None))):
        raise GridDomainError(f"{network}: band grid must be strictly increasing")
    return rates


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
) -> LogGrid:
    """Log-spaced throughput grid from ``min_tps`` to the profile's maximum.

    Both endpoints are exactly the requested values; the interior points are
    evenly spaced in log10. The grid is a :class:`LogGrid`, whose items are
    computed when they are read.

    Raises:
        ValueError: :class:`LogGrid` refuses ``min_tps`` or ``n_points``.
        GridDomainError: ``min_tps`` is not below the profile's maximum.
    """
    grid = LogGrid(min_tps, profile.max_tps, n_points)
    if not grid.min_tps < grid.max_tps:
        raise GridDomainError(
            f"{profile.network}: min_tps must lie in (0, {profile.max_tps!r}), got {min_tps!r}"
        )
    return grid


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
