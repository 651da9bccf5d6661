"""Energy units of a baselines cfg, read into kWh.

Expected values are recomputed from the exact factors (1 kWh = 3.6e6 J,
1 GJ = 1e9 J, 1 TWh = 1e9 kWh) rather than copied from any rounded table.
"""

import pytest

from posenergy.baselines import BaselineRecord, load_baselines


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
