"""Reference-system baselines: cfg units, unit reduction, config loading, band pairing."""

import pytest

from posenergy.baselines import (
    BaselineRecord,
    baseline_per_tx,
    load_baselines,
    per_second_energy,
    summarize,
)
from posenergy.ingestion import bundled


# 646,000 GJ and 50.41 / 134.24 TWh, in kWh (1 GJ = 1e9 J, 1 kWh = 3.6e6 J, 1 TWh = 1e9 kWh)
VISA = BaselineRecord("visa", 2021, 646_000 * (1e9 / 3.6e6), 1736.0)
BTC_LOWER = BaselineRecord("bitcoin-lower", 2022, 50.41 * 1e9, 2.56)
BTC_UPPER = BaselineRecord("bitcoin-upper", 2022, 134.24 * 1e9, 2.56)


class TestPerSecondEnergy:
    def test_visa(self):
        # 646,000 GJ over a 365-day year
        assert per_second_energy(VISA) == pytest.approx(5.690146, abs=5e-7)

    def test_bitcoin_lower(self):
        assert per_second_energy(BTC_LOWER) == pytest.approx(1598.490614, abs=5e-7)

    def test_bitcoin_upper(self):
        assert per_second_energy(BTC_UPPER) == pytest.approx(4256.722476, abs=5e-7)

    def test_closed_form(self):
        # TWh -> kWh is exactly 1e9; the year is exactly 31,536,000 s
        assert per_second_energy(BTC_LOWER) == pytest.approx(
            50.41e9 / 31_536_000, rel=1e-12
        )


class TestBaselinePerTx:
    def test_visa(self):
        assert baseline_per_tx(VISA) == pytest.approx(0.00327773, abs=5e-9)

    def test_bitcoin_lower(self):
        assert baseline_per_tx(BTC_LOWER) == pytest.approx(624.41, abs=0.005)

    def test_bitcoin_upper(self):
        assert baseline_per_tx(BTC_UPPER) == pytest.approx(1662.78, abs=0.005)

    def test_is_rate_over_throughput(self):
        assert baseline_per_tx(VISA) == pytest.approx(
            per_second_energy(VISA) / VISA.tps, rel=1e-12
        )


class TestBaselineRecord:
    def test_rejects_zero_tps(self):
        with pytest.raises(ValueError):
            BaselineRecord("x", 2022, 1e9, 0.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            BaselineRecord("", 2022, 1e9, 1.0)

    @pytest.mark.parametrize("year", [-40, 0, 10_000])
    def test_rejects_year_outside_calendar(self, year):
        message = rf"^year must be in \[1, 9999\] for 'visa', got {year}$"
        with pytest.raises(ValueError, match=message):
            BaselineRecord("visa", year, 1e9, 1.0)


class TestLoadBaselines:
    def test_bundled_config(self):
        records = {r.name: r for r in load_baselines(bundled("baselines.cfg"))}
        assert set(records) == {"visa", "bitcoin-lower", "bitcoin-upper"}
        visa = records["visa"]
        assert visa.period_year == 2021
        assert visa.annual_kwh == VISA.annual_kwh
        assert visa.tps == 1736.0
        assert records["bitcoin-upper"].annual_kwh == BTC_UPPER.annual_kwh

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_baselines("/nonexistent/baselines.cfg")

    def test_missing_key(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[visa]\nyear = 2021\namount = 646000\nunit = GJ\n")
        with pytest.raises(ValueError, match="tps"):
            load_baselines(cfg)

    def test_parser_error_names_path(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[visa]\nyear = 2021\n[visa]\n")
        with pytest.raises(ValueError, match=f"^{cfg}: .*section 'visa' already exists"):
            load_baselines(cfg)

    def test_extra_keys_ignored(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(
            "[visa]\nyear = 2021\namount = 646000\nunit = GJ\ntps = 1736\nnote = ESG report\n"
        )
        assert len(load_baselines(cfg)) == 1


class TestSummarize:
    def test_pairs_lower_upper(self):
        bands = summarize([BTC_LOWER, BTC_UPPER, VISA])
        names = [b.name for b in bands]
        assert names == ["bitcoin", "visa"]
        btc = bands[0]
        assert btc.kwh_per_tx_lower == pytest.approx(624.41, abs=0.005)
        assert btc.kwh_per_tx_upper == pytest.approx(1662.78, abs=0.005)
        assert btc.kwh_per_tx_mid == pytest.approx(1143.6, abs=0.05)
        assert btc.period_year == 2022

    def test_single_record_degenerate(self):
        (band,) = summarize([VISA])
        assert band.kwh_per_tx_lower == band.kwh_per_tx_upper
        assert band.kwh_per_second_lower == band.kwh_per_second_upper

    def test_kw_properties(self):
        (band,) = summarize([VISA])
        # kWh/s * 3600 s/h = kW
        assert band.kw_lower == pytest.approx(per_second_energy(VISA) * 3600, rel=1e-12)
        assert band.kw_lower == pytest.approx(20_484.53, abs=0.005)

    def test_incomplete_pair_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            summarize([BTC_LOWER])

    def test_disagreeing_pair_rejected(self):
        other = BaselineRecord("bitcoin-upper", 2022, 134.24 * 1e9, 3.0)
        with pytest.raises(ValueError, match="disagrees"):
            summarize([BTC_LOWER, other])

    def test_sorted_output(self):
        bands = summarize([VISA, BTC_LOWER, BTC_UPPER])
        assert [b.name for b in bands] == ["bitcoin", "visa"]


# Energy units of a baselines cfg, read into kWh. Expected values are
# recomputed from the exact factors (1 kWh = 3.6e6 J, 1 GJ = 1e9 J,
# 1 TWh = 1e9 kWh) rather than copied from any rounded table.


def write_cfg(tmp_path, amount, unit):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"[visa]\nyear = 2021\namount = {amount}\nunit = {unit}\ntps = 1736\n")
    return cfg


def annual_kwh(tmp_path, amount, unit):
    (record,) = load_baselines(write_cfg(tmp_path, amount, unit))
    return record.annual_kwh


class TestConvert:
    def test_gj_to_kwh(self, tmp_path):
        # 646,000 GJ -> J -> kWh: 6.46e14 / 3.6e6
        kwh = annual_kwh(tmp_path, "646000", "GJ")
        assert kwh == pytest.approx(646_000.0 * 1e9 / 3.6e6, rel=1e-12)
        assert kwh == pytest.approx(179_444_444.44, rel=1e-9)

    def test_twh_to_kwh(self, tmp_path):
        assert annual_kwh(tmp_path, "50.41", "TWh") == pytest.approx(50.41e9, rel=1e-12)

    def test_kwh_to_joules(self, tmp_path):
        # the factor 1 / 3.6e6 is itself rounded, so the product is within one ulp
        assert annual_kwh(tmp_path, "3.6e6", "J") == pytest.approx(1.0, rel=2.3e-16)

    def test_identity_conversion(self, tmp_path):
        assert annual_kwh(tmp_path, "12.5", "kWh") == 12.5

    def test_accepts_unit_strings(self, tmp_path):
        assert annual_kwh(tmp_path, "1", "TWh") == 1e9

    def test_power_to_energy_raises(self, tmp_path):
        for unit in ("W", "kW"):
            cfg = write_cfg(tmp_path, "100", unit)
            with pytest.raises(ValueError, match=rf"^{cfg} \[visa\]: unit '{unit}' is not one of"):
                load_baselines(cfg)


class TestRoundTrips:
    def test_composition_matches_direct(self, tmp_path):
        # GJ -> kWh equals the same energy given in J
        via_j = annual_kwh(tmp_path, "123.456e9", "J")
        direct = annual_kwh(tmp_path, "123.456", "GJ")
        assert via_j == pytest.approx(direct, rel=1e-12)


class TestEnergyQuantity:
    def test_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError, match="annual_kwh must be finite and positive"):
            BaselineRecord("visa", 2021, -1.0, 1736.0)
        cfg = write_cfg(tmp_path, "-1", "kWh")
        with pytest.raises(ValueError, match=rf"^{cfg} \[visa\]: annual_kwh must be"):
            load_baselines(cfg)

    def test_rejects_non_finite(self, tmp_path):
        for amount in ("nan", "inf"):
            with pytest.raises(ValueError, match="annual_kwh must be finite and positive"):
                BaselineRecord("visa", 2021, float(amount), 1736.0)
            cfg = write_cfg(tmp_path, amount, "J")
            with pytest.raises(ValueError, match=rf"^{cfg} \[visa\]: annual_kwh must be"):
                load_baselines(cfg)

    def test_rejects_unknown_unit(self, tmp_path):
        cfg = write_cfg(tmp_path, "1", "MWh")
        with pytest.raises(
            ValueError, match=rf"^{cfg} \[visa\]: unit 'MWh' is not one of J, kWh, GJ, TWh$"
        ):
            load_baselines(cfg)

    def test_as_kwh_shorthand(self, tmp_path):
        assert annual_kwh(tmp_path, "2", "GJ") == pytest.approx(2e9 / 3.6e6, rel=1e-12)
