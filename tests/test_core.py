"""Domain types and the pointwise model.

Known-value cases recompute the published comparison table from its inputs:
validator count times per-validator draw, divided by throughput.
"""

import copy
import datetime as dt
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posenergy.core import (
    FrozenInstanceError,
    NetworkObservation,
    NetworkProfile,
    Record,
    ValidatorPowerBounds,
    energy_per_tx,
    global_power,
    parse_date,
    validate_network_id,
)


class TestGlobalPower:
    def test_hedera_mid(self):
        # 26 council nodes at the mid draw of (168.10, 328.00) W
        assert global_power(26, 248.05) == pytest.approx(6.4493, rel=1e-9)

    def test_ethereum_mid(self):
        assert global_power(5294, 85.03) == pytest.approx(450.14882, rel=1e-9)

    def test_zero_validators(self):
        assert global_power(0, 87.06) == 0.0

    def test_scales_in_both_arguments(self):
        base = global_power(100, 50.0)
        assert global_power(200, 50.0) == pytest.approx(2 * base, rel=1e-12)
        assert global_power(100, 100.0) == pytest.approx(2 * base, rel=1e-12)

    def test_fractional_validators_allowed(self):
        # fitted models predict fractional counts
        assert global_power(10.5, 100.0) == pytest.approx(1.05, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            global_power(-1, 50.0)
        with pytest.raises(ValueError):
            global_power(10, 0.0)
        with pytest.raises(ValueError):
            global_power(float("nan"), 50.0)


class TestEnergyPerTx:
    @pytest.mark.parametrize(
        "validators,draw_w,tps,expected",
        [
            (1227, 87.06, 8.70, 0.003411),    # algorand mid
            (26, 248.05, 568.45, 3.15e-06),   # hedera mid
            (2512, 365.165, 493.00, 0.000517),  # solana mid
        ],
    )
    def test_published_mid_cells(self, validators, draw_w, tps, expected):
        assert energy_per_tx(validators, draw_w, tps) == pytest.approx(expected, rel=5e-4)

    def test_agrees_with_global_power(self):
        # kWh/tx == kW * 1000 / (tps * 3.6e6) at any inputs
        cases = [(1227, 87.06, 8.7), (26, 248.05, 568.45), (3200, 86.8, 0.75)]
        for n, w, tps in cases:
            direct = energy_per_tx(n, w, tps)
            via_power = global_power(n, w) * 1000.0 / (tps * 3.6e6)
            assert direct == pytest.approx(via_power, rel=1e-12)

    def test_decreases_with_throughput(self):
        rates = [0.5, 1.0, 5.0, 50.0, 500.0]
        values = [energy_per_tx(297, 56.085, r) for r in rates]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_zero_validators_zero_energy(self):
        assert energy_per_tx(0, 248.05, 568.45) == 0.0

    def test_zero_throughput_rejected(self):
        with pytest.raises(ValueError, match="zero throughput"):
            energy_per_tx(26, 248.05, 0.0)

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            energy_per_tx(26, 248.05, -1.0)


class TestNetworkObservation:
    def test_accepts_iso_date_string(self):
        obs = NetworkObservation("hedera", "2023-01-15", 26, 568.45)
        assert obs.date == dt.date(2023, 1, 15)

    def test_rejects_bad_network_id(self):
        for bad in ("", "Hedera", "bnb chain", "tron!"):
            with pytest.raises(ValueError):
                NetworkObservation(bad, "2023-01-15", 26, 568.45)

    def test_rejects_negative_validators(self):
        with pytest.raises(ValueError):
            NetworkObservation("hedera", "2023-01-15", -1, 568.45)

    def test_rejects_fractional_validators(self):
        with pytest.raises(ValueError):
            NetworkObservation("hedera", "2023-01-15", 26.5, 568.45)

    def test_rejects_negative_tps(self):
        with pytest.raises(ValueError):
            NetworkObservation("hedera", "2023-01-15", 26, -0.1)

    def test_rejects_count_no_float_holds_exactly(self):
        assert NetworkObservation("hedera", "2023-01-15", 2**53, 1.0).validators == 2**53
        for count in (2**53 + 1, 10**309):
            with pytest.raises(ValueError, match=r"validators must be a count in \[0, 2\*\*53\]"):
                NetworkObservation("hedera", "2023-01-15", count, 1.0)

    def test_zero_tps_allowed(self):
        # zero-throughput observations exist (an idle network, or the origin point)
        obs = NetworkObservation("hedera", "2023-01-15", 0, 0.0)
        assert obs.tps == 0.0

    def test_bad_date_rejected(self):
        with pytest.raises(ValueError, match="ISO-8601"):
            NetworkObservation("hedera", "15/01/2023", 26, 568.45)


class TestValidatorPowerBounds:
    def test_mid_is_mean(self):
        bounds = ValidatorPowerBounds("hedera", 168.10, 328.00)
        assert bounds.mid_w == pytest.approx(248.05)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ValidatorPowerBounds("hedera", 328.00, 168.10)

    def test_rejects_zero_lower(self):
        with pytest.raises(ValueError):
            ValidatorPowerBounds("hedera", 0.0, 168.10)

    def test_equal_bounds_allowed(self):
        bounds = ValidatorPowerBounds("hedera", 100.0, 100.0)
        assert bounds.mid_w == 100.0


class TestNetworkProfile:
    def test_network_mismatch_rejected(self):
        bounds = ValidatorPowerBounds("hedera", 168.10, 328.00)
        with pytest.raises(ValueError):
            NetworkProfile("solana", bounds, 7295.0)

    def test_rejects_non_positive_max(self):
        bounds = ValidatorPowerBounds("hedera", 168.10, 328.00)
        with pytest.raises(ValueError):
            NetworkProfile("hedera", bounds, 0.0)


class TestHelpers:
    def test_validate_network_id_passthrough(self):
        assert validate_network_id("bnb") == "bnb"

    def test_parse_date_passthrough(self):
        today = dt.date(2022, 12, 11)
        assert parse_date(today) is today
        assert parse_date("2022-12-11") == today

    def test_parse_date_datetime_gives_its_date(self):
        assert parse_date(dt.datetime(2022, 12, 11, 23, 59)) == dt.date(2022, 12, 11)
        assert type(parse_date(dt.datetime(2022, 12, 11))) is dt.date

    def test_parse_date_refuses_other_types(self):
        with pytest.raises(ValueError, match=r"^invalid date 20230131 \(want ISO-8601\)$"):
            parse_date(20230131)


class Sample(Record):
    name: str
    count: int
    ratio: float
    note: str


@dataclass(frozen=True)
class SampleTwin:
    """The reference for :class:`Sample`: a frozen dataclass with the same fields."""

    name: str
    count: int
    ratio: float
    note: str


FIELDS = ("name", "count", "ratio", "note")
SAMPLE_VALUES = st.tuples(
    st.text(max_size=5), st.integers(), st.floats(allow_nan=False), st.text(max_size=5)
)


@st.composite
def sample_calls(draw):
    """``(args, kwargs, values)``: the leading fields by position, the rest by keyword."""
    values = draw(SAMPLE_VALUES)
    positional = draw(st.integers(0, len(FIELDS)))
    kwargs = dict(zip(FIELDS[positional:], values[positional:]))
    return values[:positional], kwargs, values


class TestRecord:
    @given(call=sample_calls(), other=SAMPLE_VALUES)
    def test_matches_frozen_dataclass(self, call, other):
        args, kwargs, values = call
        record, twin = Sample(*args, **kwargs), SampleTwin(*args, **kwargs)
        assert record == Sample(*values) == Sample(**dict(zip(FIELDS, values)))
        assert twin == SampleTwin(*values)
        assert hash(record) == hash(twin) == hash(Sample(*values))
        assert repr(record) == repr(twin).replace("SampleTwin(", "Sample(", 1)
        assert [getattr(record, name) for name in FIELDS] == list(values)
        assert (record == Sample(*other)) == (twin == SampleTwin(*other))
        assert (record != Sample(*other)) == (twin != SampleTwin(*other))
        assert record != twin

    @given(values=SAMPLE_VALUES)
    def test_pickle_and_copy_round_trip(self, values):
        record = Sample(*values)
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is Sample
            assert other == record and hash(other) == hash(record)

    def test_fields_are_frozen(self):
        record = Sample("a", 1, 0.5, "")
        for name in (*FIELDS, "extra"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
                setattr(record, name, 2)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
                delattr(record, name)
        assert issubclass(FrozenInstanceError, AttributeError)
        assert record == Sample("a", 1, 0.5, "")

    def test_validated_records_are_frozen(self):
        obs = NetworkObservation("hedera", "2023-01-15", 26, 568.45)
        with pytest.raises(AttributeError):
            obs.tps = 1.0
        assert obs == copy.deepcopy(obs) == pickle.loads(pickle.dumps(obs))
        assert repr(obs) == (
            "NetworkObservation(network='hedera', date=datetime.date(2023, 1, 15), "
            "validators=26, tps=568.45, provenance='')"
        )

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("a",), {}, "missing field 'count'"),
            ((), {"count": 1}, "missing field 'name'"),
            (("a", 1), {"bogus": 2}, r"unknown fields \['bogus'\]"),
            (("a", 1), {"name": "b"}, "multiple values for field 'name'"),
            (("a", 1, 0.5, "", "x"), {}, "takes 4 fields, got 5 positional"),
        ],
        ids=["missing", "missing-first", "unknown", "repeated", "too-many"],
    )
    def test_bad_fields_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Sample(*args, **kwargs)
        with pytest.raises(TypeError):
            SampleTwin(*args, **kwargs)
