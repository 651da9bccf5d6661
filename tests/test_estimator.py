"""Contemporary estimates, throughput grids and consumption bands."""

import operator
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posenergy.baselines import BaselineBand
from posenergy.core import (
    SECONDS_PER_YEAR,
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    energy_per_tx,
)
from posenergy.estimator import (
    ConsumptionBand,
    ContemporaryEstimate,
    Erratum,
    GridDomainError,
    ReportedEstimate,
    consumption_band,
    contemporary_estimate,
    default_grid,
    find_baseline_errata,
    find_errata,
    latest_observation,
    printed_tolerance,
)
from posenergy.regression import RegressionFit, predict_validators


HEDERA_BOUNDS = ValidatorPowerBounds("hedera", 168.10, 328.00)
POLKADOT_BOUNDS = ValidatorPowerBounds("polkadot", 4.31, 107.86)
# Ints too large for a float, up to more digits (6,021) than Python prints.
BEYOND_FLOAT = st.integers(min_value=2**1024, max_value=2**20000)


def polkadot_profile(max_tps=1000.0):
    return NetworkProfile("polkadot", POLKADOT_BOUNDS, max_tps)


def flat_fit(network, cap, n_points=3):
    return RegressionFit(network, float(cap), 0.0, 1.0, n_points, False)


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
        with pytest.raises(ValueError, match="zero throughput"):
            contemporary_estimate(obs, HEDERA_BOUNDS)

    def test_network_mismatch_rejected(self):
        obs = NetworkObservation("hedera", "2023-01-31", 26, 568.45)
        with pytest.raises(ValueError):
            contemporary_estimate(obs, POLKADOT_BOUNDS)


class TestLatestObservation:
    def test_picks_most_recent_non_synthetic(self):
        rows = [
            NetworkObservation("tezos", "2022-06-01", 410, 1.1),
            NetworkObservation("tezos", "2023-01-31", 407, 0.9),
            NetworkObservation("tezos", "2021-01-01", 0, 0.0),
            NetworkObservation("near", "2023-02-10", 158, 6.33),
        ]
        picked = latest_observation(rows, "tezos")
        assert picked.date.isoformat() == "2023-01-31"
        assert picked.validators == 407

    def test_unknown_network(self):
        with pytest.raises(ValueError, match="no observations"):
            latest_observation([], "tezos")


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

    def test_rejects_single_point(self):
        with pytest.raises(GridDomainError):
            default_grid(polkadot_profile(), n_points=1)

    def test_rejects_min_at_or_above_max(self):
        with pytest.raises(GridDomainError):
            default_grid(polkadot_profile(100.0), min_tps=100.0)

    def test_rejects_non_positive_min(self):
        with pytest.raises(GridDomainError):
            default_grid(polkadot_profile(), min_tps=0.0)


class TestConsumptionBand:
    def test_capped_fit_known_values(self):
        # flat fit at 297 validators, evaluated at 1000 tx/s
        band = consumption_band(flat_fit("polkadot", 297), polkadot_profile(), [1000.0])
        assert band.physical[0]
        lower, upper = band.kwh_per_tx_lower[0], band.kwh_per_tx_upper[0]
        assert lower == pytest.approx(297 * 4.31 / (1000 * 3.6e6), rel=1e-12)
        assert upper == pytest.approx(297 * 107.86 / (1000 * 3.6e6), rel=1e-12)
        # published-precision spot values
        assert lower == pytest.approx(3.56e-07, rel=5e-3)
        assert upper == pytest.approx(8.90e-06, rel=5e-3)

    def test_matches_pointwise_formula_exactly(self):
        fit = RegressionFit("polkadot", 120.0, 3.5, 0.9, 5, True)
        profile = polkadot_profile()
        grid = default_grid(profile, n_points=50)
        band = consumption_band(fit, profile, grid)
        for rate, lower, upper in zip(band.tps, band.kwh_per_tx_lower, band.kwh_per_tx_upper):
            predicted = fit.intercept + fit.slope * rate
            if predicted >= 1.0:
                assert lower == energy_per_tx(predicted, 4.31, rate)
                assert upper == energy_per_tx(predicted, 107.86, rate)

    def test_flat_fit_band_strictly_decreasing(self):
        band = consumption_band(
            flat_fit("polkadot", 297), polkadot_profile(), default_grid(polkadot_profile())
        )
        lowers = list(compress(band.kwh_per_tx_lower, band.physical))
        uppers = list(compress(band.kwh_per_tx_upper, band.physical))
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_proportional_fit_band_constant(self):
        # intercept 0: per-tx energy does not depend on throughput
        fit = RegressionFit("polkadot", 0.0, 2.0, 1.0, 3, True)
        band = consumption_band(fit, polkadot_profile(), [1.0, 10.0, 100.0])
        lowers = set(band.kwh_per_tx_lower)
        assert len(lowers) == 1
        assert lowers.pop() == pytest.approx(2 * 4.31 / 3.6e6, rel=1e-12)

    def test_negative_prediction_not_physical(self):
        # downward-sloping fit crosses below one validator
        fit = RegressionFit("tezos", 440.7, -24.6, 0.8, 8, True)
        profile = NetworkProfile("tezos", ValidatorPowerBounds("tezos", 4.86, 141.65), 1048.0)
        band = consumption_band(fit, profile, [1.0, 20.0])
        assert band.physical[0]
        assert not band.physical[1]
        assert band.kwh_per_tx_lower[1] == 0.0
        assert band.kwh_per_tx_upper[1] == 0.0

    def test_lower_not_above_upper_everywhere(self):
        fit = RegressionFit("polkadot", 50.0, 1.7, 0.9, 6, True)
        band = consumption_band(
            fit, polkadot_profile(), default_grid(polkadot_profile(), n_points=80)
        )
        for lower, upper in zip(band.kwh_per_tx_lower, band.kwh_per_tx_upper):
            assert lower <= upper

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(GridDomainError):
            consumption_band(flat_fit("polkadot", 297), polkadot_profile(100.0), [50.0, 200.0])
        with pytest.raises(GridDomainError):
            consumption_band(flat_fit("polkadot", 297), polkadot_profile(), [0.0, 10.0])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(GridDomainError):
            consumption_band(flat_fit("polkadot", 297), polkadot_profile(), [10.0, 5.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(GridDomainError):
            consumption_band(flat_fit("polkadot", 297), polkadot_profile(), [])

    def test_network_mismatch_rejected(self):
        with pytest.raises(ValueError):
            consumption_band(flat_fit("tezos", 400), polkadot_profile(), [10.0])

    @pytest.mark.parametrize("intercept, slope", [(0.0, 1e308), (1e307, 0.0)])
    def test_overflow_names_network(self, intercept, slope):
        # 1e308 validators per tx/s overflow the prediction above 1 tx/s; 1e307
        # validators overflow only once multiplied by the power draw
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        with pytest.raises(ValueError, match=r"^polkadot: band value overflows at tps=2\.0"):
            consumption_band(fit, polkadot_profile(), [2.0, 3.0])

    @pytest.mark.parametrize("intercept, slope", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_non_finite_fit_rejected(self, intercept, slope):
        fit = RegressionFit("polkadot", intercept, slope, 1.0, 2, True)
        with pytest.raises(ValueError, match=r"^polkadot: fit (intercept|slope) must be finite"):
            consumption_band(fit, polkadot_profile(), [1.0, 2.0])

    def test_nan_grid_rejected(self):
        with pytest.raises(GridDomainError):
            consumption_band(flat_fit("polkadot", 297), polkadot_profile(), [float("nan"), 1.0])

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
            assert consumption_band(fit, profile, grid).tps == tuple(grid)
        else:
            with pytest.raises(GridDomainError):
                consumption_band(fit, profile, grid)

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
        band = consumption_band(fit, profile, grid)
        assert band.tps == tuple(grid)
        columns = zip(band.tps, band.kwh_per_tx_lower, band.kwh_per_tx_upper, band.physical)
        for rate, lower, upper, physical in columns:
            predicted = predict_validators(fit, rate)
            if predicted < 1.0:
                assert (lower, upper, physical) == (0.0, 0.0, False)
            else:
                assert physical
                assert lower == energy_per_tx(predicted, bounds.lower_w, rate)
                assert upper == energy_per_tx(predicted, bounds.upper_w, rate)
                assert lower <= upper


class TestConsumptionBandColumns:
    def test_columns_become_tuples(self):
        band = ConsumptionBand("near", [1.0, 2.0], [1e-6, 2e-6], [1e-5, 2e-5], [True, True])
        assert band.tps == (1.0, 2.0)
        assert band.physical == (True, True)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match=r"^near: band columns differ in length"):
            ConsumptionBand("near", (1.0, 2.0), (1e-6,), (1e-5, 2e-5), (True, True))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(GridDomainError, match=r"^near: band grid must be strictly"):
            ConsumptionBand("near", (2.0, 1.0), (1e-6, 1e-6), (1e-5, 1e-5), (True, True))

    def test_inverted_physical_point_rejected(self):
        with pytest.raises(ValueError, match=r"^near: band inverted at tps=2\.0$"):
            ConsumptionBand("near", (1.0, 2.0), (1e-6, 3e-5), (1e-5, 2e-5), (True, True))

    def test_inverted_non_physical_point_allowed(self):
        band = ConsumptionBand("near", (1.0, 2.0), (1e-6, 3e-5), (1e-5, 2e-5), (True, False))
        assert band.physical == (True, False)


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
