"""Least-squares fitting, checked against an independent closed-form oracle.

The oracle below uses the raw (uncentered) normal equations computed with
compensated sums; the implementation uses centered sums. Agreement between
the two routes is the check.
"""

import datetime as dt
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posenergy import report
from posenergy.core import NetworkObservation
from posenergy.ingestion import bundled, load_bounds, load_profiles, load_snapshots
from posenergy.regression import (
    DegenerateVarianceError,
    InsufficientDataError,
    RegressionFit,
    fit_affine,
    predict_validators,
)
from posenergy.report import chart_bands, fit_networks


def ols_oracle(xs, ys):
    """Raw normal equations: slope and intercept of the least-squares line."""
    n = len(xs)
    sum_x = math.fsum(xs)
    sum_y = math.fsum(ys)
    sum_xx = math.fsum(x * x for x in xs)
    sum_xy = math.fsum(x * y for x, y in zip(xs, ys))
    slope = (n * sum_xy - sum_x * sum_y) / (n * sum_xx - sum_x * sum_x)
    intercept = (sum_y - slope * sum_x) / n
    mean_y = sum_y / n
    ss_res = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return intercept, slope, r2


def obs(network, day, validators, tps):
    return NetworkObservation(network, f"2022-01-{day:02d}", validators, tps)


def r2_of_line(fit, points):
    """R² of the fit's own line over a point set, from its predictions at each point."""
    ys = [float(p.validators) for p in points]
    mean_y = math.fsum(ys) / len(ys)
    ss_res = math.fsum((y - predict_validators(fit, p.tps)) ** 2 for p, y in zip(points, ys))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


class TestFitAffine:
    def test_capped_validator_set_without_origin(self):
        # a fixed validator set at any throughput: flat line at the cap
        points = [obs("polkadot", 1, 297, 0.10), obs("polkadot", 2, 297, 0.20)]
        fit = fit_affine(points, include_origin=False)
        assert fit.intercept == pytest.approx(297.0, rel=1e-12)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0
        assert fit.n_points == 2
        assert not fit.origin_included

    def test_collinear_with_origin_is_exact(self):
        points = [obs("near", 1, 10, 2.0), obs("near", 2, 20, 4.0)]
        fit = fit_affine(points, include_origin=True)
        assert fit.intercept == 0.0
        assert fit.slope == 5.0
        assert fit.r2 == 1.0
        assert fit.n_points == 3

    def test_seven_points_match_oracle(self):
        tps = [4.1, 5.3, 6.0, 7.2, 7.9, 8.4, 8.7]
        validators = [980, 1010, 1063, 1105, 1151, 1190, 1227]
        points = [obs("algorand", i + 1, v, t) for i, (t, v) in enumerate(zip(tps, validators))]
        fit = fit_affine(points, include_origin=True)
        want_intercept, want_slope, want_r2 = ols_oracle([0.0] + tps, [0.0] + validators)
        assert fit.intercept == pytest.approx(want_intercept, rel=1e-9)
        assert fit.slope == pytest.approx(want_slope, rel=1e-9)
        assert fit.r2 == pytest.approx(want_r2, rel=1e-9)
        assert fit.n_points == 8

    def test_order_invariant(self):
        points = [
            obs("tezos", 1, 410, 1.2),
            obs("tezos", 2, 440, 0.8),
            obs("tezos", 3, 395, 1.6),
            obs("tezos", 4, 428, 0.9),
        ]
        fit_a = fit_affine(points)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = points[:]
            rng.shuffle(shuffled)
            fit_b = fit_affine(shuffled)
            assert fit_b == fit_a

    def test_duplicate_points_raise_weight(self):
        base = [obs("flow", 1, 100, 1.0), obs("flow", 2, 400, 4.0), obs("flow", 3, 250, 2.0)]
        doubled = base + [obs("flow", 4, 400, 4.0)]
        assert fit_affine(doubled, include_origin=False) != fit_affine(base, include_origin=False)

    def test_origin_changes_offset_data(self):
        # data far from the origin: the injected point must move the line
        points = [obs("polkadot", 1, 297, 0.10), obs("polkadot", 2, 297, 0.20)]
        with_origin = fit_affine(points, include_origin=True)
        without = fit_affine(points, include_origin=False)
        assert with_origin.origin_included
        assert with_origin.slope != without.slope
        assert with_origin.n_points == 3

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_affine([])

    def test_single_point_without_origin_rejected(self):
        with pytest.raises(InsufficientDataError, match=r"^near: need at least 2 points, got 1$"):
            fit_affine([obs("near", 1, 158, 6.33)], include_origin=False)

    def test_single_point_with_origin_fits(self):
        fit = fit_affine([obs("near", 1, 158, 6.33)], include_origin=True)
        assert fit.n_points == 2
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.slope == pytest.approx(158 / 6.33, rel=1e-9)

    def test_bundled_default_fits_have_exact_zero_intercept(self):
        # one observation per network plus the origin: the line is solved
        # through both points, so no rounding noise reaches the intercept
        fits = fit_networks(load_snapshots(bundled("observations.csv")).observations)
        assert len(fits) == 14
        assert all(f.n_points == 2 for f in fits)
        assert [(f.network, f.intercept) for f in fits if f.intercept != 0.0] == []

    def test_coincident_tps_rejected(self):
        # two points reach the closed-form solve, which divides by x1 - x0;
        # coincident points have no variance at any scale, subnormal too
        for tps, validators in itertools.product((33.4, 1e-300, 5e-324), ((50, 60), (50, 60, 56))):
            points = [obs("tron", i + 1, v, tps) for i, v in enumerate(validators)]
            message = rf"^tron: throughput values have no usable variance \({len(points)} points\)$"
            with pytest.raises(DegenerateVarianceError, match=message):
                fit_affine(points, include_origin=False)

    @pytest.mark.parametrize(
        "tps, include_origin, count",
        [
            # in tps units, the sum of the throughputs overflows inside fsum
            ((1e308, 1.5e308), True, 3),
            ((1e308, 1.5e308), False, 2),
            # in tps units, the sum is finite, but the squared deviations are not
            ((1e200, 2e200, 3e200), True, 4),
            ((1e200, 2e200, 3e200), False, 3),
        ],
        ids=["sum-origin", "sum", "s_xx-origin", "s_xx"],
    )
    def test_sums_beyond_float_range_fitted(self, tps, include_origin, count):
        # the sorted kernel refuses these rows, but fits them in units of 2**512
        points = [obs("near", i + 1, 10 * (i + 1), t) for i, t in enumerate(tps)]
        want = fit_outcome(points, include_origin, fit=in_units(sorted_fit, 512))
        assert want[3] == count
        for rows in (points, points[::-1]):
            assert fit_outcome(rows, include_origin) == want

    @pytest.mark.parametrize("include_origin, count", [(True, 3), (False, 2)])
    def test_squares_underflowing_to_zero_fitted(self, include_origin, count):
        # every squared deviation underflows in the sorted kernel, which fits
        # these rows in units of 2**-512
        points = [obs("near", 1, 10, 1e-300), obs("near", 2, 20, 2e-300)]
        want = fit_outcome(points, include_origin, fit=in_units(sorted_fit, -512))
        assert want[3] == count
        for rows in (points, points[::-1]):
            assert fit_outcome(rows, include_origin) == want

    def test_subnormal_variance_fits_as_at_any_scale(self):
        # s_xx of these rows is about 2e-322, subnormal in tps units
        points = [obs("near", i + 1, v, t) for i, (t, v) in
                  enumerate(zip((1e-161, 2e-161, 3e-161), (10, 20, 35)))]
        fit = fit_affine(points, include_origin=False)
        assert fit_outcome(points, False) == fit_outcome(points, False, fit=in_units(fit_affine, -40))
        assert fit.intercept == pytest.approx(-10 / 3, rel=1e-12)
        assert fit.slope == pytest.approx(12.5e161, rel=1e-12)

    @pytest.mark.parametrize("include_origin, count", [(True, 3), (False, 2)])
    def test_slope_beyond_float_range_rejected(self, include_origin, count):
        points = [obs("near", 1, 10, 5e-324), obs("near", 2, 2**53, 1e-323)]
        message = rf"^near: fitted slope leaves float range \({count} points\)$"
        for rows in (points, points[::-1]):
            with pytest.raises(ValueError, match=message) as caught:
                fit_affine(rows, include_origin=include_origin)
            assert type(caught.value) is ValueError

    def test_mixed_networks_rejected(self):
        points = [obs("tron", 1, 50, 33.4), obs("bnb", 2, 56, 40.0)]
        with pytest.raises(ValueError, match="multiple networks"):
            fit_affine(points)

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(20230131)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            xs = np.sort(rng.uniform(0.5, 900.0, size=n))
            while len(np.unique(xs)) < 2:
                xs = np.sort(rng.uniform(0.5, 900.0, size=n))
            slope_true = rng.uniform(0.5, 30.0)
            intercept_true = rng.uniform(5.0, 4000.0)
            ys = np.rint(intercept_true + slope_true * xs + rng.normal(0, 25.0, size=n))
            ys = np.clip(ys, 0, None)
            points = [obs("ethereum", (i % 27) + 1, int(v), float(t)) for i, (t, v) in enumerate(zip(xs, ys))]
            fit = fit_affine(points, include_origin=False)
            want_intercept, want_slope, want_r2 = ols_oracle([float(v) for v in xs], [float(v) for v in ys])
            assert fit.intercept == pytest.approx(want_intercept, rel=1e-9, abs=1e-9)
            assert fit.slope == pytest.approx(want_slope, rel=1e-9, abs=1e-9)
            assert fit.r2 == pytest.approx(want_r2, rel=1e-9, abs=1e-9)


def observation_lists(networks):
    """One to eight observations of the given networks.

    Ties and zero throughput are drawn often, so the degenerate-variance and
    two-point paths are reached as well as the general one.
    """
    row = st.builds(
        NetworkObservation,
        network=st.sampled_from(networks),
        date=st.dates(dt.date(2022, 1, 1), dt.date(2022, 12, 31)),
        validators=st.integers(0, 10**6),
        tps=st.one_of(st.sampled_from([0.0, 0.9, 1.2]), st.floats(1e-3, 1e4)),
    )
    return st.lists(row, min_size=1, max_size=8)


FIT_ROWS = observation_lists(["tezos"])


def fit_outcome(rows, include_origin, fit=fit_affine):
    """The fitted values, or the type and message of the error the fit raises.

    Floats are given as ``float.hex``, so two outcomes are equal only when
    they are the same bits: ``-0.0`` differs from ``0.0``.
    """
    try:
        result = fit(rows, include_origin=include_origin)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.intercept.hex(), result.slope.hex(), result.r2.hex(), result.n_points


def sorted_fit(observations, include_origin=True):
    """The least-squares kernel that sorts its points first, kept as the reference.

    Its sums run over the points in ``(tps, validators)`` order. Beside that
    kernel it has only the refusals of sums beyond float range and of squares
    underflowing to zero.
    """
    obs_list = list(observations)
    if not obs_list:
        raise InsufficientDataError("no observations to fit")
    networks = {o.network for o in obs_list}
    if len(networks) != 1:
        raise ValueError(f"observations span multiple networks: {sorted(networks)}")
    network = obs_list[0].network
    points = sorted((o.tps, float(o.validators)) for o in obs_list)
    if include_origin:
        points.insert(0, (0.0, 0.0))
    if len(points) < 2:
        raise InsufficientDataError(f"{network}: need at least 2 points, got {len(points)}")
    x, y = zip(*points)
    x_scale = max(abs(v) for v in x)
    try:
        x_mean = math.fsum(x) / len(x)
        dx = [v - x_mean for v in x]
        s_xx = math.fsum(d * d for d in dx)
    except OverflowError:
        s_xx = math.inf
    if not math.isfinite(s_xx):
        raise ValueError(f"{network}: throughput sums leave float range ({len(points)} points)")
    if s_xx == 0.0 and x[0] != x[-1]:
        raise ValueError(
            f"{network}: squared throughput deviations underflow to zero ({len(points)} points)"
        )
    if s_xx / len(points) <= 1e-12 * x_scale * x_scale:
        raise DegenerateVarianceError(
            f"{network}: throughput values have no usable variance ({len(points)} points)"
        )
    if len(points) == 2:
        (x0, x1), (y0, y1) = x, y
        slope = (y1 - y0) / (x1 - x0)
        intercept = y0 - slope * x0
    else:
        y_mean = math.fsum(y) / len(y)
        slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / s_xx
        intercept = y_mean - slope * x_mean
    ss_res = math.fsum((v - (intercept + slope * u)) ** 2 for u, v in zip(x, y))
    y_mean = math.fsum(y) / len(y)
    ss_tot = math.fsum((v - y_mean) ** 2 for v in y)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return RegressionFit(
        network=network,
        intercept=intercept,
        slope=slope,
        r2=r2,
        n_points=len(points),
        origin_included=include_origin,
    )


def in_units(fit, exponent):
    """``fit`` run on the throughputs in units of ``2**exponent``, with its
    slope scaled back to units of one."""

    def scaled_fit(observations, include_origin=True):
        scaled = [NetworkObservation(o.network, o.date, o.validators, math.ldexp(o.tps, -exponent))
                  for o in observations]
        f = fit(scaled, include_origin=include_origin)
        return RegressionFit(f.network, f.intercept, math.ldexp(f.slope, -exponent), f.r2,
                             f.n_points, f.origin_included)

    return scaled_fit


def wide_rows(size, tps_limit):
    """``size`` rows over the whole count range, with ties and zero throughput.

    Throughputs up to 1e150 keep the squared deviations of the sorted kernel
    in float range; up to 1e300 most leave it, and that kernel is refused.
    """
    row = st.builds(
        NetworkObservation,
        network=st.just("tezos"),
        date=st.dates(dt.date(2022, 1, 1), dt.date(2022, 12, 31)),
        validators=st.integers(0, 2**53),
        tps=st.one_of(st.sampled_from([0.0, 0.9, 1.2]), st.floats(1e-3, tps_limit)),
    )
    return st.lists(row, min_size=size, max_size=size)


class TestFitAffineProperties:
    @given(rows=FIT_ROWS, include_origin=st.booleans(), data=st.data())
    def test_permutation_gives_equal_fit(self, rows, include_origin, data):
        shuffled = data.draw(st.permutations(rows))
        assert fit_outcome(shuffled, include_origin) == fit_outcome(rows, include_origin)

    # up to 300 rows, beyond the library sweep's 250 points a network; one to
    # three rows often, so that the two-point solve is reached
    @settings(deadline=None)
    @given(
        size=st.one_of(st.integers(1, 3), st.integers(1, 300)),
        tps_limit=st.sampled_from([1e4, 1e150, 1e300]),
        include_origin=st.booleans(),
        data=st.data(),
    )
    def test_same_bits_as_sorted_kernel(self, size, tps_limit, include_origin, data):
        rows = data.draw(wide_rows(size, tps_limit))
        want = fit_outcome(rows, include_origin, fit=sorted_fit)
        if want[0] is ValueError:
            # refused for float range: the same kernel in units of 2**512
            want = fit_outcome(rows, include_origin, fit=in_units(sorted_fit, 512))
        assert fit_outcome(rows, include_origin) == want

    @given(rows=FIT_ROWS, include_origin=st.booleans(), k=st.integers(-1000, 1000))
    def test_power_of_two_tps_scale_only_the_slope(self, rows, include_origin, k):
        # every tps * 2**k stays a normal float, so the scaling is exact
        scaled = [NetworkObservation(o.network, o.date, o.validators, math.ldexp(o.tps, k))
                  for o in rows]
        got = fit_outcome(scaled, include_origin)
        try:
            fit = fit_affine(rows, include_origin=include_origin)
        except ValueError as exc:
            assert got == (type(exc), str(exc))
            return
        try:
            slope = math.ldexp(fit.slope, -k)
        except OverflowError:
            message = f"tezos: fitted slope leaves float range ({fit.n_points} points)"
            assert got == (ValueError, message)
            return
        assert got == (fit.intercept.hex(), slope.hex(), fit.r2.hex(), fit.n_points)

    @given(rows=FIT_ROWS, day=st.dates(dt.date(2000, 1, 1), dt.date(2030, 12, 31)))
    def test_origin_is_one_ordinary_zero_point(self, rows, day):
        origin_row = NetworkObservation("tezos", day, 0, 0.0)
        assert fit_outcome(rows, True) == fit_outcome(rows + [origin_row], False)


class TestOlsRecovery:
    """The ``ols`` model (no origin) recovers the line a history was drawn from."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 300),
        slope=st.floats(-50.0, 50.0),
        # at least one count of noise, so that rounding errors are independent
        sigma=st.floats(1.0, 100.0),
    )
    def test_within_six_standard_errors(self, seed, n, slope, sigma):
        # validators = round(a + b*tps + noise), with a high enough that no
        # count reaches 0 short of a 12-sigma draw
        rng = random.Random(seed)
        low = rng.uniform(0.0, 100.0)
        high = low + rng.uniform(1.0, 1000.0)
        intercept = abs(slope) * high + 12.0 * sigma + rng.uniform(1.0, 1000.0)
        tps = [rng.uniform(low, high) for _ in range(n)]
        rows = [
            NetworkObservation("tezos", dt.date(2022, 1, 1) + dt.timedelta(days=i),
                               round(intercept + slope * t + rng.gauss(0.0, sigma)), t)
            for i, t in enumerate(tps)
        ]
        fit = fit_affine(rows, include_origin=False)
        # rounding to a count adds uniform noise of variance 1/12
        noise = math.sqrt(sigma * sigma + 1.0 / 12.0)
        x_mean = math.fsum(tps) / n
        s_xx = math.fsum((t - x_mean) ** 2 for t in tps)
        assert abs(fit.slope - slope) <= 6.0 * noise / math.sqrt(s_xx)
        assert abs(fit.intercept - intercept) <= 6.0 * noise * math.sqrt(1.0 / n + x_mean**2 / s_xx)
        assert fit.n_points == n


# Two networks, so a window's fits come from more than one group.
WINDOW_ROWS = observation_lists(["tezos", "tron"])

# The entry fit_networks starts from, and the empty_memos fixture resets to.
NO_CALL = ((), True, ())


def window_fields(rows, include_origin):
    """Every field of each fit of :func:`fit_networks`, floats as ``float.hex``, or the
    error's type and message."""
    try:
        fits = fit_networks(rows, include_origin=include_origin)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(f.network, f.intercept.hex(), f.slope.hex(), f.r2.hex(), f.n_points,
             f.origin_included) for f in fits]


class CountingFit:
    """Stands in for ``fit_affine`` inside :func:`fit_networks` and counts its runs."""

    def __init__(self):
        self.runs = 0

    def __call__(self, *args, **kwargs):
        self.runs += 1
        return fit_affine(*args, **kwargs)


@pytest.fixture
def fits_run(monkeypatch):
    counting = CountingFit()
    monkeypatch.setattr(report, "fit_affine", counting)
    return counting


def variants(data, rows, include_origin):
    """The rows and origin flag changed in each one way: one throughput, one
    validator count, one row dropped, the flag flipped, or the order."""
    i = data.draw(st.integers(0, len(rows) - 1))
    old = rows[i]
    tps = data.draw(st.floats(1e-3, 1e4).filter(lambda t: t != old.tps))
    validators = data.draw(st.integers(0, 10**6).filter(lambda v: v != old.validators))
    for new in (NetworkObservation(old.network, old.date, old.validators, tps),
                NetworkObservation(old.network, old.date, validators, old.tps)):
        yield rows[:i] + [new] + rows[i + 1:], include_origin
    if len(rows) > 1:
        yield rows[:i] + rows[i + 1:], include_origin
    yield rows, not include_origin
    permuted = data.draw(st.permutations(rows))
    if permuted != rows:
        yield permuted, include_origin


class TestFitMemo:
    """fit_networks returns its last call's fits again for equal observations and flag."""

    ROWS = [obs("tezos", 1, 410, 1.2), obs("tron", 1, 56, 33.4), obs("tezos", 2, 440, 0.8),
            obs("tezos", 3, 395, 1.6), obs("tron", 2, 60, 30.1)]

    def test_repeated_call_returns_the_same_fit(self, empty_memos, fits_run):
        window = tuple(self.ROWS)
        fits = fit_networks(window)
        assert report._last_fits[0] is window  # the caller's tuple is kept, not a copy
        # equal records built afresh compare by value
        rebuilt = [NetworkObservation(o.network, o.date, o.validators, o.tps) for o in self.ROWS]
        for again in (fit_networks(window), fit_networks(self.ROWS), fit_networks(rebuilt)):
            assert [a is b for a, b in zip(again, fits)] == [True, True]
        assert fits_run.runs == 2

    @settings(max_examples=20, deadline=None)
    @given(rows=WINDOW_ROWS, include_origin=st.booleans())
    def test_hit_has_the_bits_of_a_fresh_fit(self, rows, include_origin):
        report._last_fits = NO_CALL
        first = window_fields(rows, include_origin)
        counting = CountingFit()
        with mock.patch.object(report, "fit_affine", counting):
            hit = window_fields(list(rows), include_origin)
        report._last_fits = NO_CALL
        assert hit == first == window_fields(rows, include_origin)
        # only a refused window is fitted again
        assert (counting.runs == 0) == isinstance(first, list)

    @settings(max_examples=20, deadline=None)
    @given(rows=WINDOW_ROWS, include_origin=st.booleans(), data=st.data())
    def test_changed_points_miss_and_match_a_fresh_fit(self, rows, include_origin, data):
        for changed, changed_origin in variants(data, rows, include_origin):
            report._last_fits = NO_CALL
            window_fields(rows, include_origin)
            counting = CountingFit()
            with mock.patch.object(report, "fit_affine", counting):
                after = window_fields(changed, changed_origin)
            report._last_fits = NO_CALL
            assert counting.runs >= 1
            assert after == window_fields(changed, changed_origin)

    @pytest.mark.parametrize(
        "tps, error",
        [
            ((33.4, 33.4), DegenerateVarianceError),
            # in tps units the sum overflows, and in any unit the spread is one ulp
            ((1.5e308, math.nextafter(1.5e308, math.inf)), DegenerateVarianceError),
            # in tps units the squares underflow, and in any unit the spread is one ulp
            ((1e-300, math.nextafter(1e-300, 1.0)), DegenerateVarianceError),
            ((5e-324, 1e-323), ValueError),
        ],
        ids=["variance", "overflow", "underflow", "slope-range"],
    )
    def test_refused_points_fail_on_every_call_and_leave_no_entry(
        self, empty_memos, fits_run, tps, error
    ):
        # tezos fits and comes first, so the refusal drops a fit already made
        tezos = [o for o in self.ROWS if o.network == "tezos"]
        rows = tezos + [obs("tron", i + 1, 50 + i, t) for i, t in enumerate(tps)]
        for _ in range(3):
            with pytest.raises(error) as caught:
                fit_networks(rows, include_origin=False)
            assert type(caught.value) is error
        assert fits_run.runs == 6
        assert report._last_fits == NO_CALL

    def test_returned_list_is_the_callers_own(self, empty_memos, fits_run):
        fits = fit_networks(self.ROWS)
        fits.append(fits[0])
        hit = fit_networks(self.ROWS)
        assert len(hit) == 2
        hit.clear()
        assert [f.network for f in fit_networks(self.ROWS)] == ["tezos", "tron"]
        assert fits_run.runs == 2

    def test_fit_then_chart_fits_each_network_once(self, empty_memos, fits_run):
        observations = load_snapshots(bundled("observations.csv")).observations
        fits = fit_networks(observations)
        profiles = load_profiles(bundled("profiles.csv"), load_bounds(bundled("bounds.csv")))
        bands = chart_bands(observations, profiles)
        assert len(fits) == len(bands) == 14
        assert fits_run.runs == 14


class TestPredictValidators:
    def test_affine_evaluation(self):
        fit = fit_affine(
            [obs("tezos", 1, 416, 1.0), obs("tezos", 2, 392, 2.0)], include_origin=False
        )
        # interpolating line through the two points: 440 - 24 * tps... checked via endpoints
        assert predict_validators(fit, 1.0) == pytest.approx(416.0, rel=1e-9)
        assert predict_validators(fit, 2.0) == pytest.approx(392.0, rel=1e-9)

    def test_negative_predictions_pass_through(self):
        # a fit like (440.7, -24.6) dips below zero at high throughput
        fit = fit_affine(
            [obs("tezos", 1, 416, 1.0), obs("tezos", 2, 392, 2.0)], include_origin=False
        )
        assert predict_validators(fit, 20.0) < 0

    def test_rejects_negative_tps(self):
        fit = fit_affine([obs("near", 1, 10, 1.0), obs("near", 2, 20, 2.0)])
        with pytest.raises(ValueError):
            predict_validators(fit, -1.0)


class TestRSquared:
    def test_matches_fit_value(self):
        points = [
            obs("hedera", 1, 24, 410.0),
            obs("hedera", 2, 26, 568.45),
            obs("hedera", 3, 25, 505.0),
        ]
        fit = fit_affine(points, include_origin=True)
        scored = r2_of_line(fit, points + [obs("hedera", 1, 0, 0.0)])
        assert scored == pytest.approx(fit.r2, rel=1e-12)

    def test_perfect_line_scores_one(self):
        points = [obs("near", 1, 10, 2.0), obs("near", 2, 20, 4.0)]
        fit = fit_affine(points, include_origin=True)
        assert fit.r2 == r2_of_line(fit, points) == 1.0

    def test_constant_series_flat_fit(self):
        points = [obs("polkadot", 1, 297, 0.10), obs("polkadot", 2, 297, 0.20)]
        fit = fit_affine(points, include_origin=False)
        assert fit.r2 == r2_of_line(fit, points) == 1.0

    def test_bounded_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            xs = rng.uniform(0.1, 100.0, size=n)
            ys = rng.integers(0, 5000, size=n)
            points = [obs("bnb", (i % 27) + 1, int(v), float(t)) for i, (t, v) in enumerate(zip(xs, ys))]
            fit = fit_affine(points, include_origin=False)
            assert 0.0 <= fit.r2 <= 1.0

    def test_residual_orthogonality(self):
        # Sum of residuals and tps-weighted residuals vanish for an OLS line.
        rng = np.random.default_rng(99)
        xs = rng.uniform(1.0, 50.0, size=8)
        ys = rng.integers(100, 3000, size=8)
        points = [obs("avalanche", i + 1, int(v), float(t)) for i, (t, v) in enumerate(zip(xs, ys))]
        fit = fit_affine(points, include_origin=False)
        resid = [p.validators - predict_validators(fit, p.tps) for p in points]
        scale = len(points) * max(abs(float(v)) for v in ys)
        assert abs(math.fsum(resid)) <= 1e-9 * scale
        assert abs(math.fsum(r * p.tps for r, p in zip(resid, points))) <= 1e-9 * scale * max(xs)
