"""Ordinary least squares fit of validator count against throughput.

The model is affine: ``validators = intercept + slope * tps``. Networks with
a fixed validator set show up as a flat line (slope near zero); networks that
recruit validators with demand show a positive slope.

The optional origin point encodes the assumption that a network processing
nothing runs no validators. It enters the fit as one ordinary (0, 0) point
of the same weight as the others, not as a hard constraint on the intercept.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .core import NetworkObservation, Record, _check_finite

# Relative variance (against the squared largest tps) below which the slope
# is considered unidentifiable.
_VARIANCE_FLOOR = 1e-12


class InsufficientDataError(ValueError):
    """Fewer than two points available for a fit."""


class DegenerateVarianceError(ValueError):
    """The throughput variance is at or below ``1e-12`` of the squared largest
    throughput (as when all values coincide); the slope is unidentifiable."""


class RegressionFit(Record):
    """Fitted affine parameters for one network.

    ``intercept`` is the modelled validator count at zero throughput and
    ``slope`` the validators gained per unit of throughput.
    """

    network: str
    intercept: float
    slope: float
    r2: float
    n_points: int
    origin_included: bool


def fit_affine(
    observations: Iterable[NetworkObservation], include_origin: bool = True
) -> RegressionFit:
    """Fit validators on tps by least squares, optionally adding the origin.

    The points are read in input order and never sorted: every sum is a
    ``math.fsum``, the correctly rounded sum of its exact terms, so the
    result does not depend on input order. Only the two-point solve reads
    positions, and it orders its two points, so an origin fit has an
    intercept of exactly zero. Duplicate rows are kept; they legitimately
    raise the weight of that point.

    Raises:
        InsufficientDataError: fewer than two points after origin injection.
        DegenerateVarianceError: the throughput values have no usable variance.
        ValueError: observations span more than one network, or the fitted
            slope leaves float range.
    """
    obs = list(observations)
    if not obs:
        raise InsufficientDataError("no observations to fit")
    networks = {o.network for o in obs}
    if len(networks) != 1:
        raise ValueError(f"observations span multiple networks: {sorted(networks)}")
    network = obs[0].network
    n = len(obs) + 1 if include_origin else len(obs)
    if n < 2:
        raise InsufficientDataError(f"{network}: need at least 2 points, got {n}")
    # Fit in units of a power of two at or above the largest tps: the sums and
    # squares stay in float range, and a square too small to hold its bits
    # cannot pass the variance floor. The scaling is exact, so only the slope
    # is scaled back; the bound keeps the unit finite for subnormal throughputs.
    exponent = max(math.frexp(max(o.tps for o in obs))[1], -1023)
    unit = math.ldexp(1.0, -exponent)
    x = [o.tps * unit for o in obs]
    y = [float(o.validators) for o in obs]
    if include_origin:
        x.append(0.0)
        y.append(0.0)
    x_scale = max(x)
    x_mean = math.fsum(x) / n
    dx = [v - x_mean for v in x]
    s_xx = math.fsum(d * d for d in dx)
    if s_xx / n <= _VARIANCE_FLOOR * x_scale * x_scale:
        raise DegenerateVarianceError(
            f"{network}: throughput values have no usable variance ({n} points)"
        )
    y_mean = math.fsum(y) / n
    if n == 2:
        # The line through both points, solved directly: the centred sums
        # would leave rounding noise in the intercept of an origin fit.
        (x0, y0), (x1, y1) = sorted(zip(x, y))
        slope = (y1 - y0) / (x1 - x0)
        intercept = y0 - slope * x0
    else:
        slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) / s_xx
        intercept = y_mean - slope * x_mean
    r2 = _coefficient_of_determination(intercept, slope, x, y, y_mean)
    try:
        slope = math.ldexp(slope, -exponent)
    except OverflowError:
        raise ValueError(f"{network}: fitted slope leaves float range ({n} points)") from None
    return RegressionFit(
        network=network,
        intercept=intercept,
        slope=slope,
        r2=r2,
        n_points=n,
        origin_included=include_origin,
    )


def predict_validators(fit: RegressionFit, tps: float) -> float:
    """Validator count the fit predicts at a throughput.

    May be fractional, and negative for downward-sloping fits; consumers
    decide what to do with non-physical predictions.
    """
    return fit.intercept + fit.slope * _check_finite("tps", tps, "non-negative", fit.network)


def _coefficient_of_determination(
    intercept: float, slope: float, x: Sequence[float], y: Sequence[float], y_mean: float
) -> float:
    ss_res = math.fsum((v - (intercept + slope * u)) ** 2 for u, v in zip(x, y))
    ss_tot = math.fsum((v - y_mean) ** 2 for v in y)
    if ss_tot == 0.0:
        # A constant series is explained exactly by a flat fit through it.
        return 1.0 if ss_res == 0.0 else 0.0
    return min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
