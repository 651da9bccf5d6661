"""Contemporary estimates, throughput grids and consumption bands."""

import math
import operator
import pickle
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posenergy.baselines import BaselineBand
from posenergy.chart import render_chart
from posenergy.core import (
    JOULES_PER_KWH,
    SECONDS_PER_YEAR,
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    _check_finite,
)
from posenergy.estimator import (
    ConsumptionBand,
    ContemporaryEstimate,
    Erratum,
    GridDomainError,
    LogGrid,
    ReportedEstimate,
    contemporary_estimate,
    default_grid,
    find_baseline_errata,
    find_errata,
    find_input_mismatches,
    printed_tolerance,
)
from posenergy.ingestion import bundled, load_bounds, load_profiles, load_snapshots
from posenergy.regression import RegressionFit, predict_validators
from posenergy.report import fit_networks


HEDERA_BOUNDS = ValidatorPowerBounds("hedera", 168.10, 328.00)
POLKADOT_BOUNDS = ValidatorPowerBounds("polkadot", 4.31, 107.86)
NAN, INF = float("nan"), float("inf")
EPS, ULP_ZERO = Fraction(sys.float_info.epsilon), Fraction(math.ulp(0.0))
# Band coordinates: each edge of the rule, small and huge magnitudes of both signs.
ORDINARY = st.floats(min_value=1e-6, max_value=1e3)
BAND_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 5e-324, NAN, INF, -INF]),
    st.floats(allow_nan=True, allow_infinity=True),
    ORDINARY,
)
EDGE_PAIRS = st.tuples(BAND_NUMBERS, BAND_NUMBERS)


# Ints too large for a float, up to more digits (6,021) than Python prints.
BEYOND_FLOAT = st.integers(min_value=2**1024, max_value=2**20000)


@st.composite
def any_band_case(draw):
    """Any fit coefficients, draws and grid, most of which a band refuses.

    The grid is up to five numbers in any order, ints beyond float range
    included, or a :class:`LogGrid` that may reach beyond ``max_tps``.
    """
    grid = draw(st.one_of(
        st.lists(ORDINARY, max_size=5, unique=True).map(sorted),
        st.lists(st.one_of(BAND_NUMBERS, BEYOND_FLOAT), max_size=5),
        st.builds(LogGrid, ORDINARY, st.floats(1e3, 1e4), st.integers(2, 50)),
    ))
    lower_w = draw(st.floats(min_value=5e-324, max_value=1e300))
    bounds = ValidatorPowerBounds("near", lower_w, draw(st.floats(lower_w, 1e300)))
    fit = RegressionFit("near", draw(BAND_NUMBERS), draw(BAND_NUMBERS), 1.0, 2, False)
    return fit, NetworkProfile("near", bounds, 1e3), grid


def polkadot_profile(max_tps=1000.0):
    return NetworkProfile("polkadot", POLKADOT_BOUNDS, max_tps)


def flat_fit(network, cap, n_points=3):
    return RegressionFit(network, float(cap), 0.0, 1.0, n_points, False)


def reference_band(fit, profile, grid):
    """The per-point loop and column checks that the fit-held band replaced, kept as its reference.

    Returns the columns as a namespace with the band's column names.
    """
    network = profile.network
    if fit.network != network:
        raise ValueError(f"fit for {fit.network!r} evaluated against profile for {network!r}")
    intercept = _check_finite(f"{network}: fit intercept", fit.intercept)
    slope = _check_finite(f"{network}: fit slope", fit.slope)
    k_lower = profile.bounds.lower_w / JOULES_PER_KWH
    k_upper = profile.bounds.upper_w / JOULES_PER_KWH
    outside = f"grid values must lie in (0, {profile.max_tps!r}] for {network!r}"
    try:
        rates = list(map(float, grid))
    except OverflowError:
        raise GridDomainError(outside) from None
    if rates and not (0 < min(rates) and max(rates) <= profile.max_tps):
        raise GridDomainError(outside)
    lower, upper, physical = [], [], []
    for rate in rates:
        if intercept + slope * rate < 1.0:
            lower.append(0.0)
            upper.append(0.0)
            physical.append(False)
        else:
            per_tps = intercept / rate + slope
            lower.append(per_tps * k_lower)
            upper.append(per_tps * k_upper)
            physical.append(True)
    if not rates:
        raise GridDomainError(f"{network}: empty throughput grid")
    if not all(a < b for a, b in zip(rates, rates[1:])):
        raise GridDomainError(f"{network}: band grid must be strictly increasing")
    for rate, lo, up, flag in zip(rates, lower, upper, physical):
        name = f"{network}: band value at tps={rate!r}"
        for value in (lo, up):
            _check_finite(name, value, "positive" if flag else "")
        if flag and lo > up:
            raise ValueError(f"{network}: band inverted at tps={rate!r}")
    return SimpleNamespace(
        tps=tuple(rates), kwh_per_tx_lower=tuple(lower), kwh_per_tx_upper=tuple(upper),
        physical=tuple(physical),
    )


def band_columns(band):
    """A band's values over its whole grid, named as :func:`reference_band` names them.

    Off the physical run each value is ``0.0`` and each flag ``False``.
    """
    start, stop = band.physical_run
    after = len(band.grid) - stop
    lower, upper = band.kwh_per_tx_at(band.grid[start:stop])
    return SimpleNamespace(
        tps=band.grid[:],
        kwh_per_tx_lower=(0.0,) * start + tuple(lower) + (0.0,) * after,
        kwh_per_tx_upper=(0.0,) * start + tuple(upper) + (0.0,) * after,
        physical=(False,) * start + (True,) * (stop - start) + (False,) * after,
    )


def band_points(band):
    """Each grid point of a band as ``(tps, lower, upper, physical)``: see :func:`band_columns`."""
    columns = band_columns(band)
    return zip(columns.tps, columns.kwh_per_tx_lower, columns.kwh_per_tx_upper, columns.physical)


def band_outcome(function, fit, profile, grid):
    """The band's columns as bytes and flags, or the type and message of what it raised."""
    try:
        band = function(fit, profile, grid)
    except ValueError as exc:
        return type(exc), str(exc)
    columns = band_columns(band) if isinstance(band, ConsumptionBand) else band
    values = (columns.tps, columns.kwh_per_tx_lower, columns.kwh_per_tx_upper)
    return [struct.pack(f"{len(column)}d", *column) for column in values], columns.physical


def log_uniform(low, high):
    """Floats from ``10**low`` to ``10**high``, spread evenly in log10."""
    return st.floats(min_value=low, max_value=high).map(lambda exponent: 10.0**exponent)


@st.composite
def band_cases(draw):
    """A fit, a profile and a grid: a list that is increasing, unsorted or ends at ``max_tps``,
    or a :class:`LogGrid` that is proven increasing, collapsing or reaching beyond ``max_tps``.

    Intercepts put the one-validator boundary inside the grid's range, or are
    small, 1e15 or beyond of either sign, or zero of either sign; slopes are
    positive or negative, or zero of either sign.
    """
    max_tps = draw(log_uniform(-2, 9))
    shape = draw(st.sampled_from(
        ["increasing", "unsorted", "ends-at-max", "default", "collapsing", "beyond-max"]
    ))
    if shape == "default":  # 1.003 to 1e8 times min_tps
        grid = LogGrid(max_tps / draw(log_uniform(-2.9, 8)), max_tps, draw(st.integers(2, 2000)))
    elif shape == "collapsing":  # a few ulp wide, so it is walked; some items repeat
        low = max_tps - draw(st.integers(1, 8)) * math.ulp(max_tps)
        grid = LogGrid(low, max_tps, draw(st.integers(3, 60)))
    elif shape == "beyond-max":
        grid = LogGrid(max_tps / 100, max_tps * draw(st.floats(1.01, 100.0)), 50)
    else:
        grid = draw(st.lists(st.floats(min_value=max_tps * 1e-6, max_value=max_tps),
                             min_size=2, max_size=40, unique=True))
        if shape == "increasing":
            grid.sort()
        elif shape == "ends-at-max":
            grid = sorted({*grid, max_tps})
    sign = st.sampled_from([1.0, -1.0])
    # hypothesis leans to the first branch of one_of, so the zeros come last; a
    # slope predicts 0.1 to 1e6 validators at max_tps
    slope = draw(st.one_of(
        st.builds(lambda s, count: s * count / max_tps, sign, log_uniform(-1, 6)),
        st.sampled_from([0.0, -0.0]),
    ))
    low, high = min(grid), min(max(grid), max_tps)
    crossings = log_uniform(math.log10(low), math.log10(high))
    intercept = draw(st.one_of(
        crossings.map(lambda rate: 1.0 - slope * rate),
        st.floats(min_value=-10.0, max_value=10.0),
        st.builds(operator.mul, sign, log_uniform(15, 308)),
        st.sampled_from([0.0, -0.0]),
    ))
    lower_w = draw(st.floats(min_value=0.1, max_value=500.0))
    bounds = ValidatorPowerBounds("near", lower_w, lower_w * draw(st.floats(1.0, 100.0)))
    fit = RegressionFit("near", intercept, slope, 1.0, 2, False)
    return fit, NetworkProfile("near", bounds, max_tps), grid


NEAR_PROFILE = NetworkProfile("near", ValidatorPowerBounds("near", 5.5, 168.1), 1e6)


class TestContemporaryEstimate:
    def test_hedera_row(self):
        obs = NetworkObservation("hedera", "2023-01-31", 26, 568.45)
        est = contemporary_estimate(obs, HEDERA_BOUNDS)
        assert est.global_kw_mid == pytest.approx(6.4493, rel=1e-9)
        assert est.kwh_per_tx_mid == pytest.approx(3.1515e-06, rel=1e-4)
        assert est.global_kw_lower == pytest.approx(26 * 168.10 / 1000, rel=1e-12)
        assert est.global_kw_upper == pytest.approx(26 * 328.00 / 1000, rel=1e-12)

    def test_mid_is_mean_of_bounds(self):
        obs = NetworkObservation("polkadot", "2023-01-31", 297, 0.13)
        est = contemporary_estimate(obs, POLKADOT_BOUNDS)
        assert est.global_kw_mid == pytest.approx(
            (est.global_kw_lower + est.global_kw_upper) / 2, rel=1e-12
        )
        assert est.kwh_per_tx_mid == pytest.approx(
            (est.kwh_per_tx_lower + est.kwh_per_tx_upper) / 2, rel=1e-12
        )

    def test_ordering_invariant(self):
        obs = NetworkObservation("polkadot", "2023-01-31", 297, 0.13)
        est = contemporary_estimate(obs, POLKADOT_BOUNDS)
        assert est.global_kw_lower <= est.global_kw_mid <= est.global_kw_upper
        assert est.kwh_per_tx_lower <= est.kwh_per_tx_mid <= est.kwh_per_tx_upper

    def test_zero_validators(self):
        obs = NetworkObservation("hedera", "2023-01-31", 0, 100.0)
        est = contemporary_estimate(obs, HEDERA_BOUNDS)
        assert est.global_kw_mid == 0.0
        assert est.kwh_per_tx_mid == 0.0

    def test_zero_throughput_rejected(self):
        obs = NetworkObservation("hedera", "2023-01-31", 26, 0.0)
        message = r"^tps must be finite and positive for 'hedera', got 0\.0$"
        with pytest.raises(ValueError, match=message):
            contemporary_estimate(obs, HEDERA_BOUNDS)

    def test_network_mismatch_rejected(self):
        obs = NetworkObservation("hedera", "2023-01-31", 26, 568.45)
        with pytest.raises(ValueError):
            contemporary_estimate(obs, POLKADOT_BOUNDS)


class TestDefaultGrid:
    def test_decade_spacing(self):
        profile = NetworkProfile("polkadot", POLKADOT_BOUNDS, 100.0)
        grid = default_grid(profile, n_points=3, min_tps=1.0)
        assert list(grid) == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_endpoints_exact(self):
        profile = NetworkProfile("polkadot", POLKADOT_BOUNDS, 7295.0)
        grid = default_grid(profile, n_points=2, min_tps=0.01)
        assert grid[0] == 0.01
        assert grid[-1] == 7295.0

    def test_default_shape(self):
        grid = default_grid(polkadot_profile())
        assert len(grid) == 200
        assert np.all(np.diff(grid) > 0)

    @settings(deadline=None)
    @given(
        min_tps=st.floats(min_value=1e-6, max_value=1e4),
        ratio=st.floats(min_value=2.0, max_value=1e8),
        n_points=st.integers(min_value=2, max_value=5000),
    )
    def test_matches_geomspace(self, min_tps, ratio, n_points):
        profile = polkadot_profile(min_tps * ratio)
        grid = default_grid(profile, n_points=n_points, min_tps=min_tps)
        assert len(grid) == n_points
        assert grid[0] == min_tps
        assert grid[-1] == profile.max_tps
        assert all(b > a for a, b in zip(grid, grid[1:]))
        # numpy's vectorised log10/power may differ from libm by a few dozen ulp
        reference = np.geomspace(min_tps, profile.max_tps, n_points)
        np.testing.assert_allclose(grid, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_points", [2, 3, 200])
    def test_largest_float_max_tps(self, n_points):
        # 10 ** log10(max_tps) leaves float range, so the end is taken as given
        grid = default_grid(polkadot_profile(sys.float_info.max), n_points=n_points, min_tps=1.0)
        assert len(grid) == n_points
        assert grid[0] == 1.0
        assert grid[-1] == sys.float_info.max
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_rejects_single_point(self):
        message = r"^n_points must be a count in \[2, 2\*\*53\], got 1$"
        with pytest.raises(ValueError, match=message):
            default_grid(polkadot_profile(), n_points=1)

    def test_rejects_min_at_or_above_max(self):
        message = r"^polkadot: min_tps must lie in \(0, 100\.0\), got 100\.0$"
        with pytest.raises(GridDomainError, match=message):
            default_grid(polkadot_profile(100.0), min_tps=100.0)

    def test_rejects_non_positive_min(self):
        with pytest.raises(ValueError, match=r"^min_tps must be finite and positive, got 0\.0$"):
            default_grid(polkadot_profile(), min_tps=0.0)


def listed_grid(min_tps, max_tps, n_points):
    """The list :func:`default_grid` built before it returned a :class:`LogGrid`: the reference."""
    start = math.log10(min_tps)
    step = (math.log10(max_tps) - start) / (n_points - 1)
    interior = [10.0 ** (i * step + start) for i in range(1, n_points - 1)]
    return [min_tps, *interior, max_tps]


def bits(values):
    return [struct.pack("d", value) for value in values]


# Grid ends, from the tiniest normal throughput to the largest float.
GRID_ENDS = st.one_of(
    st.tuples(log_uniform(-6, 4), log_uniform(0.001, 8)).map(
        lambda ends: (ends[0], ends[0] * ends[1]),
    ),
    st.tuples(st.floats(sys.float_info.min, 1.0), st.floats(2.0, sys.float_info.max)),
    st.floats(1e-6, 1e6).flatmap(
        lambda high: st.integers(1, 64).map(lambda k: (high - k * math.ulp(high), high))
    ),
)


class TestLogGrid:
    @settings(max_examples=20, deadline=None)
    @given(ends=GRID_ENDS, n_points=st.integers(2, 5000), data=st.data())
    def test_items_match_listed_grid_bit_for_bit(self, ends, n_points, data):
        grid, listed = LogGrid(*ends, n_points), listed_grid(*ends, n_points)
        assert len(grid) == n_points
        assert bits(grid) == bits(listed)
        assert bits(grid[:]) == bits(listed) and type(grid[:]) is tuple
        for index in data.draw(st.lists(st.integers(-n_points, n_points - 1), max_size=8)):
            assert bits([grid[index]]) == bits([listed[index]])
        indices = st.one_of(st.none(), st.integers(-n_points - 2, n_points + 2))
        for _ in range(4):
            cut = slice(data.draw(indices), data.draw(indices),
                        data.draw(st.one_of(st.none(), st.integers(1, 7), st.integers(-7, -1))))
            assert bits(grid[cut]) == bits(listed[cut])
        for index in (n_points, -n_points - 1):
            with pytest.raises(IndexError):
                grid[index]

    @settings(max_examples=20, deadline=None)
    @given(ends=GRID_ENDS, n_points=st.integers(2, 5000))
    def test_proven_grid_is_strictly_increasing(self, ends, n_points):
        grid = LogGrid(*ends, n_points)
        if grid.increasing():
            listed = listed_grid(*ends, n_points)
            assert all(a < b for a, b in zip(listed, listed[1:]))

    @pytest.mark.parametrize("side, proven", [(1.01, True), (0.99, False)])
    def test_bound_decides_the_proof(self, side, proven):
        # step >= 2**-40 * max(1, |log10 min|, |log10 max|) proves the grid; below, it is walked
        n_points, magnitude = 50, 3.0
        low = 10.0 ** (3.0 - side * (n_points - 1) * 2.0**-40 * magnitude)
        grid = LogGrid(low, 1000.0, n_points)
        assert grid.increasing() is proven
        listed = listed_grid(low, 1000.0, n_points)
        assert all(a < b for a, b in zip(listed, listed[1:]))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.01, 1000.0, 1), r"^n_points must be a count in \[2, 2\*\*53\], got 1$"),
            ((0.01, 1000.0, 2.5), r"^n_points must be a count in \[2, 2\*\*53\], got 2\.5$"),
            ((0.0, 10.0, 5), r"^min_tps must be finite and positive, got 0\.0$"),
            ((NAN, 10.0, 5), r"^min_tps must be finite and positive, got nan$"),
            ((0.01, -10.0, 5), r"^max_tps must be finite and positive, got -10\.0$"),
            ((0.01, INF, 5), r"^max_tps must be finite and positive, got inf$"),
            ((0.01, 10**400, 5),
             r"^max_tps must be finite and positive, got a number beyond float range$"),
        ],
        ids=["one-point", "fractional-n", "zero-min", "nan-min", "negative-max", "inf-max",
             "max-beyond-float"],
    )
    def test_refuses_ends_and_counts_no_grid_has(self, args, message):
        with pytest.raises(ValueError, match=message):
            LogGrid(*args)

    def test_record_of_its_ends_and_count(self):
        grid = default_grid(polkadot_profile(), 5)
        assert grid == LogGrid(0.01, 1000.0, 5)
        assert repr(grid) == "LogGrid(min_tps=0.01, max_tps=1000.0, n_points=5)"
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid and hash(copy) == hash(grid) and bits(copy) == bits(grid)
        assert list(reversed(grid)) == list(grid)[::-1] and grid[2] in grid


def assert_near_exact(value, intercept, slope, rate, w):
    """Assert a band value lies within two roundings of its structure term
    (|intercept| / tps + |slope|), times its draw, of the exact rational
    (intercept / tps + slope) * w / 3.6e6, plus one subnormal step."""
    tps = Fraction(rate)
    exact = Fraction(intercept) / tps + Fraction(slope)
    scale = abs(Fraction(intercept)) / tps + abs(Fraction(slope))
    hardware = Fraction(w) / Fraction(JOULES_PER_KWH)
    bound = 2 * EPS * scale * hardware + ULP_ZERO
    assert abs(Fraction(value) - exact * hardware) <= bound


class TestConsumptionBand:
    def test_capped_fit_known_values(self):
        # flat fit at 297 validators, evaluated at 1000 tx/s
        band = ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(), [1000.0])
        assert band.physical_run == (0, 1)
        (lower,), (upper,) = band.kwh_per_tx_at([1000.0])
        assert lower == pytest.approx(297 * 4.31 / (1000 * 3.6e6), rel=1e-12)
        assert upper == pytest.approx(297 * 107.86 / (1000 * 3.6e6), rel=1e-12)
        # published-precision spot values
        assert lower == pytest.approx(3.56e-07, rel=5e-3)
        assert upper == pytest.approx(8.90e-06, rel=5e-3)

    def test_matches_pointwise_formula_exactly(self):
        # each physical value is validators per tx/s times kWh per validator-second
        fit = RegressionFit("polkadot", 120.0, 3.5, 0.9, 5, True)
        profile = polkadot_profile()
        grid = default_grid(profile, n_points=50)
        band = ConsumptionBand(fit, profile, grid)
        run = band.grid[slice(*band.physical_run)]
        assert list(run) == [rate for rate in grid if fit.intercept + fit.slope * rate >= 1.0]
        for rate, lower, upper in zip(run, *band.kwh_per_tx_at(run)):
            per_tps = fit.intercept / rate + fit.slope
            assert lower == per_tps * (4.31 / JOULES_PER_KWH)
            assert upper == per_tps * (107.86 / JOULES_PER_KWH)
            assert_near_exact(lower, fit.intercept, fit.slope, rate, 4.31)
            assert_near_exact(upper, fit.intercept, fit.slope, rate, 107.86)

    def test_flat_fit_band_strictly_decreasing(self):
        band = ConsumptionBand(
            flat_fit("polkadot", 297), polkadot_profile(), default_grid(polkadot_profile())
        )
        start, stop = band.physical_run
        lowers, uppers = band.kwh_per_tx_at(band.grid[start:stop])
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_proportional_fit_band_constant(self):
        # intercept 0: per-tx energy does not depend on throughput
        fit = RegressionFit("polkadot", 0.0, 2.0, 1.0, 3, True)
        band = ConsumptionBand(fit, polkadot_profile(), [1.0, 10.0, 100.0])
        assert band.physical_run == (0, 3)
        lowers = set(band.kwh_per_tx_at(band.grid)[0])
        assert len(lowers) == 1
        assert lowers.pop() == pytest.approx(2 * 4.31 / 3.6e6, rel=1e-12)

    def test_negative_prediction_not_physical(self):
        # downward-sloping fit crosses below one validator
        fit = RegressionFit("tezos", 440.7, -24.6, 0.8, 8, True)
        profile = NetworkProfile("tezos", ValidatorPowerBounds("tezos", 4.86, 141.65), 1048.0)
        band = ConsumptionBand(fit, profile, [1.0, 20.0])
        assert band.physical_run == (0, 1)

    def test_lower_not_above_upper_everywhere(self):
        fit = RegressionFit("polkadot", 50.0, 1.7, 0.9, 6, True)
        band = ConsumptionBand(
            fit, polkadot_profile(), default_grid(polkadot_profile(), n_points=80)
        )
        for lower, upper in zip(*band.kwh_per_tx_at(band.grid[slice(*band.physical_run)])):
            assert lower <= upper

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(GridDomainError):
            ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(100.0), [50.0, 200.0])
        with pytest.raises(GridDomainError):
            ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(), [0.0, 10.0])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(GridDomainError):
            ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(), [10.0, 5.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(GridDomainError, match=r"^polkadot: empty throughput grid$"):
            ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(), [])

    def test_network_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConsumptionBand(flat_fit("tezos", 400), polkadot_profile(), [10.0])

    @pytest.mark.parametrize(
        "intercept, slope, expected", [(0.0, 1e308, 1.197222e302), (1e307, 0.0, 5.986111e300)]
    )
    def test_huge_fit_priced_within_float_range(self, intercept, slope, expected):
        # the prediction at 2 tx/s, 2e308 or 1e307 validators, leaves float range
        # or nearly does; validators per tx/s times kWh per validator-second does not
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        band = ConsumptionBand(fit, polkadot_profile(), [2.0, 3.0])
        assert band.physical_run == (0, 2)
        (lower,), (upper,) = band.kwh_per_tx_at([2.0])
        assert lower == pytest.approx(expected, rel=1e-6)
        assert upper == pytest.approx(expected * 107.86 / 4.31, rel=1e-6)

    @pytest.mark.parametrize("intercept, slope", [(0.0, 1e308), (1e307, 0.0)])
    def test_overflow_names_network(self, intercept, slope):
        # at a 1e300 W draw the exact kWh/tx at 2 tx/s is about 1e600 or 1e599
        bounds = ValidatorPowerBounds("polkadot", 1e300, 1e300)
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        message = r"^polkadot: band value at tps=2\.0 must be finite and positive, got inf$"
        with pytest.raises(ValueError, match=message):
            ConsumptionBand(fit, NetworkProfile("polkadot", bounds, 1000.0), [2.0, 3.0])

    def test_underflow_names_network_and_tps(self):
        # a 5e-324 W draw makes every physical kWh/tx underflow to 0.0
        profile = NetworkProfile("near", ValidatorPowerBounds("near", 5e-324, 1.0), 100.0)
        message = r"^near: band value at tps=1\.0 must be finite and positive, got 0\.0$"
        with pytest.raises(ValueError, match=message):
            ConsumptionBand(flat_fit("near", 10), profile, [1.0, 2.0])

    @pytest.mark.parametrize("intercept, slope", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_non_finite_fit_rejected(self, intercept, slope):
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        with pytest.raises(ValueError, match=r"^polkadot: fit (intercept|slope) must be finite"):
            ConsumptionBand(fit, polkadot_profile(), [1.0, 2.0])

    def test_nan_grid_rejected(self):
        with pytest.raises(GridDomainError):
            ConsumptionBand(flat_fit("polkadot", 297), polkadot_profile(), [float("nan"), 1.0])

    @given(
        grid=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, -1.0, 100.0, float("nan"), float("inf")]),
                st.floats(min_value=1e-3, max_value=150.0),
                BEYOND_FLOAT,
                BEYOND_FLOAT.map(operator.neg),
            ),
            max_size=6,
        )
    )
    def test_domain_check_matches_pointwise_rule(self, grid):
        # the per-point rule the order-then-endpoints check replaced
        valid = (
            bool(grid)
            and all(0 < rate <= 100.0 for rate in grid)
            and all(a < b for a, b in zip(grid, grid[1:]))
        )
        fit, profile = flat_fit("polkadot", 297), polkadot_profile(100.0)
        if valid:
            assert ConsumptionBand(fit, profile, grid).grid == tuple(grid)
        else:
            with pytest.raises(GridDomainError):
                ConsumptionBand(fit, profile, grid)

    @settings(deadline=None)
    @given(
        intercept=st.floats(min_value=-1e4, max_value=1e4),
        slope=st.floats(min_value=-1e3, max_value=1e3),
        lower_w=st.floats(min_value=0.1, max_value=1e3),
        upper_ratio=st.floats(min_value=1.0, max_value=100.0),
        max_tps=st.floats(min_value=1.0, max_value=1e5),
        n_points=st.integers(min_value=2, max_value=2000),
    )
    def test_columns_match_pointwise_model(
        self, intercept, slope, lower_w, upper_ratio, max_tps, n_points
    ):
        bounds = ValidatorPowerBounds("polkadot", lower_w, lower_w * upper_ratio)
        profile = NetworkProfile("polkadot", bounds, max_tps)
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        grid = default_grid(profile, n_points=n_points, min_tps=max_tps / 1e4)
        band = ConsumptionBand(fit, profile, grid)
        assert band.grid[:] == tuple(grid)
        for rate, lower, upper, physical in band_points(band):
            if predict_validators(fit, rate) < 1.0:
                assert (lower, upper, physical) == (0.0, 0.0, False)
            else:
                assert physical
                assert_near_exact(lower, intercept, slope, rate, bounds.lower_w)
                assert_near_exact(upper, intercept, slope, rate, bounds.upper_w)
                assert lower <= upper

    @settings(deadline=None)
    @given(
        intercept=st.floats(min_value=-1e6, max_value=1e6),
        slope=st.floats(min_value=-1e6, max_value=1e6),
        lower_w=st.floats(min_value=1e-3, max_value=1e4),
        upper_ratio=st.floats(min_value=1.0, max_value=100.0),
        rate=st.floats(min_value=1e-300, max_value=1e308),
    )
    @example(intercept=0.0, slope=24.96, lower_w=5.5, upper_ratio=30.0, rate=sys.float_info.max)
    @example(intercept=158.0, slope=1e-300, lower_w=5.5, upper_ratio=30.0, rate=1e-300)
    def test_values_match_exact_arithmetic(self, intercept, slope, lower_w, upper_ratio, rate):
        # The coefficients keep intercept / tps in float range down to 1e-300 tx/s,
        # and draws up to 1e6 W keep w / 3.6e6 below 1, so a subnormal structure
        # factor loses no more than that step.
        bounds = ValidatorPowerBounds("polkadot", lower_w, lower_w * upper_ratio)
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        band = ConsumptionBand(fit, NetworkProfile("polkadot", bounds, rate), [rate])
        ((_, lower, upper, physical),) = band_points(band)
        point = (lower, upper, physical)
        if predict_validators(fit, rate) < 1.0:
            assert point == (0.0, 0.0, False)
            return
        assert point[2]
        for value, w in zip(point, (bounds.lower_w, bounds.upper_w)):
            assert_near_exact(value, intercept, slope, rate, w)

    @settings(max_examples=50, deadline=None)
    @given(case=band_cases())
    @example(case=(  # the cancellation refusal: still refused, with the same message
        RegressionFit("near", -2.3308452694912763e21, 1.0096038554276378e16, 1.0, 2, False),
        NEAR_PROFILE,
        [230867.31067444276],
    ))
    @example(case=(  # a falling fit: the physical points are a prefix
        RegressionFit("near", 440.7, -24.6, 0.8, 8, True), NEAR_PROFILE,
        default_grid(NetworkProfile("near", NEAR_PROFILE.bounds, 1048.0)),
    ))
    @example(case=(  # an origin fit with a negative-zero intercept
        RegressionFit("near", -0.0, 24.96, 1.0, 2, True), NEAR_PROFILE, default_grid(NEAR_PROFILE)
    ))
    @example(case=(RegressionFit("near", 0.0, 24.96, 1.0, 2, True), NEAR_PROFILE, [1.0, 0.0, 2.0]))
    @example(case=(RegressionFit("near", 0.0, 24.96, 1.0, 2, True), NEAR_PROFILE, [2.0, 1.0]))
    def test_bits_match_pointwise_reference(self, case):
        assert band_outcome(ConsumptionBand, *case) == band_outcome(reference_band, *case)

    def test_bundled_origin_bands_match_reference(self):
        # every bundled fit is through the origin, and its band has the per-point reference's bits
        observations = load_snapshots(bundled("observations.csv")).observations
        profiles = load_profiles(bundled("profiles.csv"), load_bounds(bundled("bounds.csv")))
        fits = fit_networks(observations)
        assert len(fits) == 14 and all(fit.intercept == 0 for fit in fits)
        for fit in fits:
            profile = profiles[fit.network]
            grid = default_grid(profile, 20000)
            start, stop = ConsumptionBand(fit, profile, grid).physical_run
            assert start < stop
            assert band_outcome(ConsumptionBand, fit, profile, grid) == band_outcome(
                reference_band, fit, profile, grid
            )


def near_band(intercept, slope, grid, lower_w=5.5, upper_w=168.1, max_tps=100.0):
    fit = RegressionFit("near", intercept, slope, 1.0, 2, False)
    bounds = ValidatorPowerBounds("near", lower_w, upper_w)
    return ConsumptionBand(fit, NetworkProfile("near", bounds, max_tps), grid)


def inverted_profile(lower_w, upper_w, max_tps=100.0):
    """A profile-shaped namespace whose lower draw may exceed its upper one, as no profile can."""
    bounds = SimpleNamespace(network="near", lower_w=lower_w, upper_w=upper_w)
    return SimpleNamespace(network="near", bounds=bounds, max_tps=max_tps)


class TestConsumptionBandColumns:
    def test_grid_kept_as_a_tuple_or_a_proven_log_grid(self):
        # a list becomes a tuple of floats; a proven LogGrid is kept, its items unread
        band = near_band(0.0, 24.96, [1, 2.0], max_tps=1e6)
        assert band.grid == (1.0, 2.0) and type(band.grid) is tuple
        assert all(type(rate) is float for rate in band.grid)
        grid = default_grid(NEAR_PROFILE, 3)
        assert near_band(0.0, 24.96, grid, max_tps=1e6).grid is grid

    def test_unsorted_grid_rejected(self):
        with pytest.raises(GridDomainError, match=r"^near: band grid must be strictly"):
            near_band(0.0, 24.96, (2.0, 1.0))

    def test_inverted_physical_point_rejected(self):
        fit = RegressionFit("near", 10.0, 0.0, 1.0, 2, False)
        with pytest.raises(ValueError, match=r"^near: band inverted at tps=1\.0$"):
            ConsumptionBand(fit, inverted_profile(200.0, 100.0), (1.0, 2.0))

    def test_inverted_non_physical_point_allowed(self):
        # no point is physical, so no value is checked
        fit = RegressionFit("near", 0.0, 0.1, 1.0, 2, False)
        band = ConsumptionBand(fit, inverted_profile(200.0, 100.0), (1.0, 2.0))
        assert band.physical_run == (2, 2)  # a rising fit's empty suffix

    @pytest.mark.parametrize(
        "band_args, error, message",
        [
            pytest.param(
                (0.0, 24.96, (0.0, 1.0, 10.0)),
                GridDomainError,
                r"^grid values must lie in \(0, 100\.0\] for 'near'$",
                id="physical-at-tps-zero",
            ),
            pytest.param(
                (10.0, 0.0, (0.1, 1.0, 10.0), 5e-324),
                ValueError,
                r"^near: band value at tps=0\.1 must be finite and positive, got 0\.0$",
                id="physical-kwh-zero",
            ),
            pytest.param(  # at 1e-10 tx/s, 1e300 validators per tx/s overflow; times 0.0 is nan
                (1e300, 0.0, (1e-10, 1.0), 5e-324),
                ValueError,
                r"^near: band value at tps=1e-10 must be finite and positive, got nan$",
                id="nan-polygon-vertex",
            ),
            pytest.param(  # 1e310 validators per tx/s at the run's first point only
                (1e300, 0.0, (1e-10, 1.0)),
                ValueError,
                r"^near: band value at tps=1e-10 must be finite and positive, got inf$",
                id="overflow-at-lowest-tps",
            ),
            pytest.param(  # a rising fit: 9.1e307 validators per tx/s at 10 tx/s, times 5
                (-9e307, 1e308, (1.0, 10.0), 3.6e6, 1.8e7),
                ValueError,
                r"^near: band value at tps=10\.0 must be finite and positive, got inf$",
                id="overflow-at-highest-tps",
            ),
            pytest.param(
                (0.0, 24.96, (0.1, INF)),
                GridDomainError,
                r"^grid values must lie in \(0, 100\.0\] for 'near'$",
                id="inf-tps",
            ),
            pytest.param(
                (0.0, 24.96, ()), GridDomainError, r"^near: empty throughput grid$", id="empty"
            ),
        ],
    )
    def test_band_a_chart_cannot_show_refused(self, band_args, error, message):
        with pytest.raises(error, match=message):
            near_band(*band_args)

    def test_finite_values_whose_sum_overflows_accepted(self):
        # 1.5e308 and 1.7e308 kWh/tx at every point: finite, though their sum is not
        band = near_band(0.0, 1e308, (1.0, 2.0, 3.0), 5.4e6, 6.12e6)
        assert band.physical_run == (0, 3)
        lower, upper = band.kwh_per_tx_at(band.grid)
        assert lower == [1e308 * (5.4e6 / JOULES_PER_KWH)] * 3
        assert upper == [1e308 * (6.12e6 / JOULES_PER_KWH)] * 3

    def test_value_beyond_float_range_named(self):
        message = r"^near: fit intercept must be finite, got a number beyond float range$"
        with pytest.raises(ValueError, match=message):
            near_band(10**400, 1.0, (1.0,))

    def test_tps_beyond_float_range_named(self):
        message = r"^grid values must lie in \(0, 100\.0\] for 'near'$"
        with pytest.raises(GridDomainError, match=message):
            near_band(0.0, 24.96, (1.0, 10**400))

    @settings(max_examples=20, deadline=None)
    @given(case=any_band_case())
    def test_accepts_exactly_the_pointwise_rule(self, case):
        # refusals as well as bands: the same type and message, or the same bits
        assert band_outcome(ConsumptionBand, *case) == band_outcome(reference_band, *case)

    @settings(max_examples=20, deadline=None)
    @given(case=band_cases())
    def test_physical_run_holds_the_reference_flags(self, case):
        try:
            band = ConsumptionBand(*case)
        except ValueError:
            assume(False)
        flags = reference_band(*case).physical
        assert [i for i, flag in enumerate(flags) if flag] == list(range(*band.physical_run))


class CountingGrid(LogGrid):
    """A LogGrid that counts the items read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        object.__setattr__(self, "reads", 0)

    def __getitem__(self, index):
        items = super().__getitem__(index)
        read = len(items) if isinstance(index, slice) else 1
        object.__setattr__(self, "reads", self.reads + read)
        return items

    def __iter__(self):
        return iter(self[:])


def assert_flat_where_formatted_once(band):
    """Assert the run the chart CSV formats once, that of a fit with intercept 0, holds one bit
    pattern per edge. Off the run the CSV prints ``0,0`` without reading the band."""
    if band.intercept == 0:
        for edge in band.kwh_per_tx_at(band.grid[slice(*band.physical_run)]):
            assert len(set(bits(edge))) <= 1


class TestRunFlatness:
    """Which spans of a band hold one bit pattern per column, and how little a flat band reads."""

    @settings(max_examples=20, deadline=None)
    @given(case=band_cases())
    def test_matches_per_run_bits(self, case):
        try:
            band = ConsumptionBand(*case)
        except ValueError:
            assume(False)
        assert_flat_where_formatted_once(band)

    def test_one_point_runs_are_flat(self):
        # a falling fit: one physical point, then one that is not
        band = near_band(440.7, -24.6, (1.0, 20.0))
        assert band.physical_run == (0, 1)

    def test_consumption_band_runs_of_bundled_fits_are_flat(self):
        observations = load_snapshots(bundled("observations.csv")).observations
        profiles = load_profiles(bundled("profiles.csv"), load_bounds(bundled("bounds.csv")))
        for fit in fit_networks(observations):
            profile = profiles[fit.network]
            band = ConsumptionBand(fit, profile, default_grid(profile, 500))
            assert band.intercept == 0
            assert_flat_where_formatted_once(band)

    def test_varying_runs_of_a_fit_with_an_intercept(self):
        # a rising fit: a flat all-0.0 non-physical prefix, then a varying physical run
        fit = RegressionFit("polkadot", -50.0, 2.0, 1.0, 5, False)
        band = ConsumptionBand(fit, polkadot_profile(), default_grid(polkadot_profile(), 50))
        start, stop = band.physical_run
        assert 0 < start < stop == 50
        assert len(set(band.kwh_per_tx_at(band.grid[start:stop])[0])) == stop - start

    @settings(max_examples=20, deadline=None)
    @given(
        refusal=st.sampled_from([(5e-324, 1.0, 1.0, "0.0"), (1e300, 1e300, 1e300, "inf")]),
        intercept=st.sampled_from([0.0, -0.0]),
        n_points=st.integers(2, 20000),
        min_tps=log_uniform(-3, 2),
    )
    def test_refused_flat_run_names_its_first_point(self, refusal, intercept, n_points, min_tps):
        # underflow or overflow refuses every point of the run: the first is named
        lower_w, upper_w, slope, shown = refusal
        profile = NetworkProfile("near", ValidatorPowerBounds("near", lower_w, upper_w), 1e3)
        fit = RegressionFit("near", intercept, slope, 1.0, 2, True)
        grid = default_grid(profile, n_points, min_tps)
        start = next(i for i, rate in enumerate(grid) if intercept + slope * rate >= 1.0)
        message = (f"near: band value at tps={grid[start]!r} "
                   f"must be finite and positive, got {shown}")
        with pytest.raises(ValueError) as raised:
            ConsumptionBand(fit, profile, grid)
        assert str(raised.value) == message

    def test_flat_band_reads_log_n_grid_items(self):
        # built, ranged and drawn from its run's ends and one bisection's probes
        fit = RegressionFit("near", 0.0, 24.96, 1.0, 2, True)
        for n_points in (200, 20000, 2_000_000):
            grid = CountingGrid(0.01, 1000.0, n_points)
            svg = render_chart([ConsumptionBand(fit, NEAR_PROFILE, grid)])
            assert svg.count("<polygon") == 1
            assert 0 < grid.reads <= 2 * math.log2(n_points) + 8

    def test_flatness_is_not_a_field(self):
        band = near_band(0.0, 24.96, default_grid(NEAR_PROFILE, 50), max_tps=1e6)
        copy = pickle.loads(pickle.dumps(band))
        assert copy == band and hash(copy) == hash(band)
        assert copy.physical_run == band.physical_run
        run = band.grid[slice(*band.physical_run)]
        assert copy.kwh_per_tx_at(run) == band.kwh_per_tx_at(run)
        assert "physical_run" not in repr(band) and "_run" not in repr(band)
        # equality, hashing and repr go by what fixes the values
        assert ConsumptionBand._fields == ("network", "intercept", "slope", "hardware_lower",
                                           "hardware_upper", "grid")


class TestErrata:
    def make_estimate(self, network, validators, tps, lower, upper):
        obs = NetworkObservation(network, "2023-01-31", validators, tps)
        return contemporary_estimate(obs, ValidatorPowerBounds(network, lower, upper))

    def test_fires_only_for_unreproducible_rows(self):
        estimates = [
            self.make_estimate("cardano", 1209, 0.96, 3.90, 84.47),
            self.make_estimate("tron", 56, 33.40, 16.80, 123.50),
            self.make_estimate("hedera", 26, 568.45, 168.10, 328.00),
        ]
        reported = {
            "cardano": ReportedEstimate("cardano", 142.63, 0.041270),
            "tron": ReportedEstimate("tron", 391.92, 0.001202),
            "hedera": ReportedEstimate("hedera", 6.45, 0.000003),
        }
        errata = find_errata(estimates, reported)
        assert [e.network for e in errata] == ["cardano", "tron"]
        assert [e.quantity for e in errata] == ["global_kw", "global_kw"]
        cardano, tron = errata
        assert cardano.reported == 142.63
        assert cardano.computed == pytest.approx(53.42, abs=0.01)
        assert cardano.computed == estimates[0].global_kw_mid
        assert (tron.reported, tron.computed) == (391.92, estimates[1].global_kw_mid)

    def test_unreported_networks_skipped(self):
        estimates = [self.make_estimate("hedera", 26, 568.45, 168.10, 328.00)]
        assert find_errata(estimates, {}) == []

    def test_row_without_global_kw_skipped(self):
        # cardano's published 142.63 kW is an erratum; without the figure there is none
        estimates = [self.make_estimate("cardano", 1209, 0.96, 3.90, 84.47)]
        assert find_errata(estimates, {"cardano": ReportedEstimate("cardano", None, 0.04127)}) == []

    def test_input_mismatches_compare_only_stated_inputs(self):
        estimates = [
            self.make_estimate(network, 158, 6.33, 80.0, 100.0)
            for network in ("tezos", "near", "hedera", "flow", "cardano")
        ]
        reported = {
            "tezos": ReportedEstimate("tezos", 13.71, 0.0006, tps=6.4),
            "near": ReportedEstimate("near", 13.71, 0.0006, 6.33, 160),
            "hedera": ReportedEstimate("hedera", 13.71, 0.0006, 6.33, 158),
            "flow": ReportedEstimate("flow", 13.71, 0.0006),  # states neither input
        }
        mismatched = find_input_mismatches(estimates, reported)
        assert [(row.name, estimate.network) for row, estimate in mismatched] == [
            ("near", "near"), ("tezos", "tezos")
        ]

    # the bundled amounts: 50.41 / 134.24 TWh and 646,000 GJ, in kWh
    BITCOIN = BaselineBand("bitcoin", 2022, 2.56, 50.41e9, 134.24e9)
    VISA = BaselineBand("visa", 2021, 1736.0, 646_000 * (1e9 / 3.6e6), 646_000 * (1e9 / 3.6e6))

    def test_baseline_midpoint_checked_against_published_kwh_per_tx(self):
        bitcoin, visa = self.BITCOIN, self.VISA
        reported = {
            "bitcoin": ReportedEstimate("bitcoin", 0.0, 2927.0),
            "visa": ReportedEstimate("visa", 0.0, 0.00328),
        }
        assert find_baseline_errata([bitcoin, visa], reported) == [
            Erratum("bitcoin", "kwh_per_tx", 2927.0, bitcoin.kwh_per_tx_mid)
        ]
        assert find_baseline_errata([bitcoin, visa], {}) == []

    def test_baseline_kwh_per_tx_compared_at_six_decimals(self):
        # 0.0033 is 2.2e-5 from the computed 0.00327773, beyond the 1.65e-5
        # allowance at six decimals but well inside a two-decimal one
        visa = self.VISA
        assert visa.kwh_per_tx_mid == pytest.approx(0.00327773, abs=5e-9)
        reported = {"visa": ReportedEstimate("visa", 0.0, 0.0033)}
        assert find_baseline_errata([visa], reported) == [
            Erratum("visa", "kwh_per_tx", 0.0033, visa.kwh_per_tx_mid)
        ]

    @pytest.mark.parametrize("validators", [-5, 2**53 + 1])
    def test_reported_validators_must_be_a_count(self, validators):
        with pytest.raises(ValueError, match=r"^validators must be a count in \[0, 2\*\*53\]"):
            ReportedEstimate("visa", 1736.0, 0.00328, 1736.0, validators)
        assert ReportedEstimate("visa", 1736.0, 0.00328, 1736.0, 2**53).validators == 2**53

    def test_printed_tolerance_floor(self):
        # half a unit in the last printed place dominates for tiny values
        assert printed_tolerance(0.000003, decimals=6) == pytest.approx(5e-7)
        # the relative term dominates for large values
        assert printed_tolerance(917.29, decimals=2) == pytest.approx(917.29 * 0.005)


# The decimals reported_estimates.csv prints each compared quantity with.
GLOBAL_KW_DECIMALS = 2
KWH_PER_TX_DECIMALS = 6
PUBLISHED = st.one_of(
    st.floats(0.0, 1e12), st.floats(0.0, 1e-3), st.sampled_from([0.0, 0.000003, 2927.0])
)


@st.composite
def published_computed(draw):
    """A published figure and a computed one near, at or far from it."""
    published = draw(PUBLISHED)
    scale = max(0.005 * published, 5e-7)
    computed = draw(
        st.one_of(
            st.floats(-3.0, 3.0).map(lambda k: abs(published + k * scale)),
            st.floats(0.0, 1e12),
            st.just(published),
        )
    )
    return published, computed


class TestErrataProperty:
    @settings(deadline=None)
    @given(pair=published_computed())
    def test_global_kw_erratum_exactly_outside_tolerance(self, pair):
        published, computed = pair
        estimate = ContemporaryEstimate(
            "near", "2023-01-31", 158, 6.33, 0.0, computed, computed, 0.0, 0.0, 0.0
        )
        errata = find_errata([estimate], {"near": ReportedEstimate("near", published, 0.0)})
        outside = abs(computed - published) > printed_tolerance(published, GLOBAL_KW_DECIMALS)
        assert errata == ([Erratum("near", "global_kw", published, computed)] if outside else [])

    @settings(deadline=None)
    @given(pair=published_computed())
    def test_kwh_per_tx_erratum_exactly_outside_tolerance(self, pair):
        published, computed = pair
        # a band's kWh/tx is derived from its annual kWh: at 1 tx/s, the drawn
        # value to within an ulp, and the erratum is decided on the derived one
        assume(computed > 0)
        annual = computed * SECONDS_PER_YEAR
        band = BaselineBand("visa", 2021, 1.0, annual, annual)
        computed = (annual / SECONDS_PER_YEAR) / 1.0
        assert band.kwh_per_tx_mid == computed
        errata = find_baseline_errata([band], {"visa": ReportedEstimate("visa", 0.0, published)})
        outside = abs(computed - published) > printed_tolerance(published, KWH_PER_TX_DECIMALS)
        assert errata == ([Erratum("visa", "kwh_per_tx", published, computed)] if outside else [])
