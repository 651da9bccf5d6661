"""Every validating constructor and public model function refuses a bad field the same way.

A real-valued field is refused when NaN, infinite, an int too large for a float,
negative, or zero where it must be positive, with ``<field> must be finite and
<sign> for '<owner>', got <value>`` (no ``for`` clause without an owner; an int
too large for a float is shown as ``a number beyond float range``). A count is refused when
fractional, non-finite or out of range. A valid value is stored unchanged.
"""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posenergy.baselines import BaselineBand
from posenergy.core import (
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    energy_per_tx,
    global_power,
)
from posenergy.estimator import ReportedEstimate, consumption_band
from posenergy.regression import RegressionFit, predict_validators
from posenergy.solana import VoteRatioRecord, adjust_tps, adjusted_max_tps

TINY, HUGE = math.ulp(0.0), sys.float_info.max
BOUNDS = ValidatorPowerBounds("near", 1.0, 2.0)
PROFILE = NetworkProfile("near", BOUNDS, 10.0)
FIT = RegressionFit("near", 1.0, 1.0, 1.0, 2, True)
RECORDS = [VoteRatioRecord("2022-01-01", 1, 2, 1.0)]


def fit_band(intercept, slope):
    return consumption_band(RegressionFit("near", intercept, slope, 1.0, 2, True), PROFILE, [1.0])


# (field as the message names it, attribute it is stored in or None, sign rule, owner,
#  call with the field set to a value)
REAL_FIELDS = {
    "observation-tps": ("tps", "tps", "non-negative", "near",
                        lambda v: NetworkObservation("near", "2023-01-31", 1, v)),
    "bounds-lower": ("lower_w", "lower_w", "positive", "near",
                     lambda v: ValidatorPowerBounds("near", v, HUGE)),
    "bounds-upper": ("upper_w", "upper_w", "positive", "near",
                     lambda v: ValidatorPowerBounds("near", TINY, v)),
    "profile-max-tps": ("max_tps", "max_tps", "positive", "near",
                        lambda v: NetworkProfile("near", BOUNDS, v)),
    "global-power-n": ("n_validators", None, "non-negative", None, lambda v: global_power(v, 1.0)),
    "global-power-w": ("watts_per_validator", None, "positive", None,
                       lambda v: global_power(1.0, v)),
    "energy-n": ("n_validators", None, "non-negative", None, lambda v: energy_per_tx(v, 1.0, 1.0)),
    "energy-w": ("watts_per_validator", None, "positive", None,
                 lambda v: energy_per_tx(1.0, v, 1.0)),
    "energy-tps": ("tps", None, "non-negative", None, lambda v: energy_per_tx(1.0, 1.0, v)),
    "reported-global-kw": ("global_kw", "global_kw", "non-negative", "visa",
                           lambda v: ReportedEstimate("visa", v, 1.0)),
    "reported-kwh-per-tx": ("kwh_per_tx", "kwh_per_tx", "non-negative", "visa",
                            lambda v: ReportedEstimate("visa", 1.0, v)),
    "reported-tps": ("tps", "tps", "non-negative", "visa",
                     lambda v: ReportedEstimate("visa", 1.0, 1.0, v)),
    "fit-intercept": ("near: fit intercept", None, "", None, lambda v: fit_band(v, 0.0)),
    "fit-slope": ("near: fit slope", None, "", None, lambda v: fit_band(1.0, v)),
    "predict-tps": ("tps", None, "non-negative", "near", lambda v: predict_validators(FIT, v)),
    "vote-reported-tps": ("reported_tps", "reported_tps", "non-negative", None,
                          lambda v: VoteRatioRecord("2022-01-01", 1, 2, v)),
    "adjust-tps": ("reported_tps", None, "non-negative", None, lambda v: adjust_tps(v, 0.5)),
    "adjusted-max": ("postulated_max", None, "positive", None,
                     lambda v: adjusted_max_tps(v, RECORDS)),
    "baseline-tps": ("tps", "tps", "positive", "visa",
                     lambda v: BaselineBand("visa", 2022, v, 1.0, 1.0)),
    "baseline-lower": ("annual_kwh", "annual_kwh_lower", "positive", "visa",
                       lambda v: BaselineBand("visa", 2022, 1.0, v, HUGE)),
    "baseline-upper": ("annual_kwh", "annual_kwh_upper", "positive", "visa",
                       lambda v: BaselineBand("visa", 2022, 1.0, TINY, v)),
}

# (field as the message names it, attribute it is stored in, least and greatest valid
#  count, call with the field set to a value)
COUNT_FIELDS = {
    "observation-validators": ("validators", "validators", 0, 2**53,
                               lambda v: NetworkObservation("near", "2023-01-31", v, 1.0)),
    "reported-validators": ("validators", "validators", 0, 2**53,
                            lambda v: ReportedEstimate("visa", 1.0, 1.0, None, v)),
    "vote-nonvote": ("nonvote_tx_per_day", "nonvote_tx_per_day", 0, 2**53,
                     lambda v: VoteRatioRecord("2022-01-01", v, 2**53, 1.0)),
    "vote-total": ("total_tx_per_day", "total_tx_per_day", 1, 2**53,
                   lambda v: VoteRatioRecord("2022-01-01", 0, v, 1.0)),
    "baseline-year": ("year", "period_year", 1, 9999,
                      lambda v: BaselineBand("visa", v, 1.0, 1.0, 1.0)),
}

# A non-negative field that must also be non-zero: per-transaction energy
# divides by it, and zero throughput is refused with its own reason.
ZERO_REFUSED = {"energy-tps"}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Ints too large for a float, either sign, up to more digits (6,021) than Python prints.
BEYOND_FLOAT = st.integers(2**1024, 2**20000).flatmap(lambda v: st.sampled_from([v, -v]))


def bad_reals(sign, zero_refused):
    if not sign:
        return NON_FINITE | BEYOND_FLOAT
    negative = NON_FINITE | BEYOND_FLOAT | st.floats(max_value=-TINY)
    return negative | st.sampled_from([0.0, -0.0]) if zero_refused else negative


def valid_reals(sign, zero_refused):
    if not sign:  # fit coefficients: bounded, so that no band value overflows
        return st.floats(min_value=-1e6, max_value=1e6)
    return st.floats(min_value=0.0, exclude_min=zero_refused, allow_infinity=False)


@pytest.mark.parametrize("case", REAL_FIELDS)
@given(data=st.data())
def test_real_field_refused_with_one_wording(case, data):
    field, _, sign, owner, build = REAL_FIELDS[case]
    value = data.draw(bad_reals(sign, sign == "positive" or case in ZERO_REFUSED))
    with pytest.raises(ValueError) as raised:
        build(value)
    message = str(raised.value)
    if value == 0 and case in ZERO_REFUSED:
        assert message.startswith(f"{field} must be positive: "), message
    else:
        rule = f"finite and {sign}" if sign else "finite"
        where = f" for {owner!r}" if owner else ""
        shown = "a number beyond float range" if isinstance(value, int) else repr(value)
        assert message == f"{field} must be {rule}{where}, got {shown}"


@pytest.mark.parametrize("case", REAL_FIELDS)
@given(data=st.data())
def test_real_field_valid_value_kept(case, data):
    _, attribute, sign, _, build = REAL_FIELDS[case]
    value = data.draw(valid_reals(sign, sign == "positive" or case in ZERO_REFUSED))
    built = build(value)
    if attribute is not None:
        assert getattr(built, attribute) == value


def bad_counts(low, high):
    fractional = st.floats(min_value=low, max_value=high).filter(lambda v: not v.is_integer())
    return (fractional | NON_FINITE | st.integers(max_value=low - 1)
            | st.integers(min_value=high + 1))


@pytest.mark.parametrize("case", COUNT_FIELDS)
@given(data=st.data())
def test_bad_count_refused(case, data):
    field, _, low, high, build = COUNT_FIELDS[case]
    value = data.draw(bad_counts(low, high))
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        build(value)


@pytest.mark.parametrize("case", COUNT_FIELDS)
@given(data=st.data())
def test_valid_count_kept(case, data):
    _, attribute, low, high, build = COUNT_FIELDS[case]
    value = data.draw(st.integers(low, high))
    stored = getattr(build(value), attribute)
    assert stored == value and type(stored) is int


@pytest.mark.parametrize(
    "build",
    [lambda: VoteRatioRecord("2022-01-01", 1.9, 10.7, 5),
     lambda: BaselineBand("x", 2022.5, 1, 1, 2)],
    ids=["vote-counts", "baseline-year"],
)
def test_fractional_count_refused(build):
    with pytest.raises(ValueError, match=r"must be a count in \[0, 2\*\*53\]"):
        build()
