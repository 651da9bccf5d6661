"""Reference-system baselines: cfg units, band checks, derived figures, config loading, pairing."""

import configparser
import datetime as dt
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posenergy.baselines import BaselineBand, load_baselines
from posenergy.core import (
    JOULES_PER_KWH,
    SECONDS_PER_HOUR,
    SECONDS_PER_YEAR,
    Record,
    validate_network_id,
)
from posenergy.ingestion import bundled


# 646,000 GJ and 50.41 / 134.24 TWh, in kWh (1 GJ = 1e9 J, 1 kWh = 3.6e6 J, 1 TWh = 1e9 kWh)
VISA_KWH = 646_000 * (1e9 / 3.6e6)
BTC_LOWER_KWH = 50.41 * 1e9
BTC_UPPER_KWH = 134.24 * 1e9
VISA = BaselineBand("visa", 2021, 1736.0, VISA_KWH, VISA_KWH)
BITCOIN = BaselineBand("bitcoin", 2022, 2.56, BTC_LOWER_KWH, BTC_UPPER_KWH)


def write_sections(tmp_path, *sections):
    """A cfg with one section per ``(name, year, annual kWh, tps)``, amounts in kWh."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(
        "".join(
            f"[{name}]\nyear = {year}\namount = {kwh!r}\nunit = kWh\ntps = {tps!r}\n"
            for name, year, kwh, tps in sections
        )
    )
    return cfg


VISA_SECTION = ("visa", 2021, VISA_KWH, 1736.0)
BTC_LOWER_SECTION = ("bitcoin-lower", 2022, BTC_LOWER_KWH, 2.56)
BTC_UPPER_SECTION = ("bitcoin-upper", 2022, BTC_UPPER_KWH, 2.56)


class TestPerSecondEnergy:
    def test_visa(self):
        # 646,000 GJ over a 365-day year
        assert VISA.kwh_per_second_lower == pytest.approx(5.690146, abs=5e-7)
        assert VISA.kwh_per_second_upper == VISA.kwh_per_second_lower

    def test_bitcoin_lower(self):
        assert BITCOIN.kwh_per_second_lower == pytest.approx(1598.490614, abs=5e-7)

    def test_bitcoin_upper(self):
        assert BITCOIN.kwh_per_second_upper == pytest.approx(4256.722476, abs=5e-7)

    def test_closed_form(self):
        # TWh -> kWh is exactly 1e9; the year is exactly 31,536,000 s
        assert BITCOIN.kwh_per_second_lower == pytest.approx(50.41e9 / 31_536_000, rel=1e-12)


class TestBaselinePerTx:
    def test_visa(self):
        assert VISA.kwh_per_tx_lower == pytest.approx(0.00327773, abs=5e-9)

    def test_bitcoin_lower(self):
        assert BITCOIN.kwh_per_tx_lower == pytest.approx(624.41, abs=0.005)

    def test_bitcoin_upper(self):
        assert BITCOIN.kwh_per_tx_upper == pytest.approx(1662.78, abs=0.005)

    def test_is_rate_over_throughput(self):
        assert VISA.kwh_per_tx_lower == pytest.approx(
            VISA.kwh_per_second_lower / VISA.tps, rel=1e-12
        )


class TestBaselineRecord:
    """The checks on one cfg section's figures, which :class:`BaselineBand` makes."""

    def test_rejects_zero_tps(self):
        with pytest.raises(ValueError):
            BaselineBand("x", 2022, 0.0, 1e9, 1e9)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            BaselineBand("", 2022, 1.0, 1e9, 1e9)

    @pytest.mark.parametrize("year", [-40, 0, 10_000])
    def test_rejects_year_outside_calendar(self, year):
        message = rf"^year must be a count in \[1, 9999\] for 'visa', got {year}$"
        with pytest.raises(ValueError, match=message):
            BaselineBand("visa", year, 1.0, 1e9, 1e9)


class TestBaselineBand:
    @pytest.mark.parametrize("name", ["Visa", "a,b", "-lower", "a<b"])
    def test_rejects_invalid_id(self, name):
        with pytest.raises(ValueError, match=r"^invalid network id"):
            BaselineBand(name, 2021, 1.0, 1e9, 1e9)

    @pytest.mark.parametrize("tps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_tps_not_finite_and_positive(self, tps):
        message = rf"^tps must be finite and positive for 'visa', got {tps!r}$"
        with pytest.raises(ValueError, match=message):
            BaselineBand("visa", 2021, tps, 1e9, 1e9)

    @pytest.mark.parametrize("amount", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_rejects_amount_not_finite_and_positive(self, amount, bound):
        lower, upper = (amount, 1e9) if bound == "lower" else (1e-9, amount)
        message = rf"^annual_kwh must be finite and positive for 'visa', got {amount!r}$"
        with pytest.raises(ValueError, match=message):
            BaselineBand("visa", 2021, 1.0, lower, upper)

    def test_rejects_lower_above_upper(self):
        message = r"^baseline 'bitcoin' has annual_kwh_lower 2.0 above annual_kwh_upper 1.0$"
        with pytest.raises(ValueError, match=message):
            BaselineBand("bitcoin", 2022, 2.56, 2.0, 1.0)

    def test_fields_are_stored_as_floats(self):
        band = BaselineBand("visa", 2021, 1736, 5, 7)
        assert (band.tps, band.annual_kwh_lower, band.annual_kwh_upper) == (1736.0, 5.0, 7.0)
        assert all(type(v) is float for v in (band.tps, band.annual_kwh_lower))


class TestLoadBaselines:
    def test_bundled_config(self):
        bands = {b.name: b for b in load_baselines(bundled("baselines.cfg"))}
        assert set(bands) == {"visa", "bitcoin"}
        visa = bands["visa"]
        assert visa.period_year == 2021
        assert visa.annual_kwh_lower == visa.annual_kwh_upper == VISA_KWH
        assert visa.tps == 1736.0
        assert bands["bitcoin"].annual_kwh_lower == BTC_LOWER_KWH
        assert bands["bitcoin"].annual_kwh_upper == BTC_UPPER_KWH
        assert bands == {"visa": VISA, "bitcoin": BITCOIN}

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
    """Pairing ``<name>-lower``/``<name>-upper`` sections into one band, in the loader."""

    def test_pairs_lower_upper(self, tmp_path):
        bands = load_baselines(
            write_sections(tmp_path, BTC_LOWER_SECTION, BTC_UPPER_SECTION, VISA_SECTION)
        )
        names = [b.name for b in bands]
        assert names == ["bitcoin", "visa"]
        btc = bands[0]
        assert btc.kwh_per_tx_lower == pytest.approx(624.41, abs=0.005)
        assert btc.kwh_per_tx_upper == pytest.approx(1662.78, abs=0.005)
        assert btc.kwh_per_tx_mid == pytest.approx(1143.6, abs=0.05)
        assert btc.period_year == 2022

    def test_single_record_degenerate(self, tmp_path):
        (band,) = load_baselines(write_sections(tmp_path, VISA_SECTION))
        assert band.kwh_per_tx_lower == band.kwh_per_tx_upper
        assert band.kwh_per_second_lower == band.kwh_per_second_upper

    def test_kw_properties(self, tmp_path):
        (band,) = load_baselines(write_sections(tmp_path, VISA_SECTION))
        # kWh/s * 3600 s/h = kW
        assert band.kw_lower == pytest.approx(VISA.kwh_per_second_lower * 3600, rel=1e-12)
        assert band.kw_lower == pytest.approx(20_484.53, abs=0.005)

    def test_incomplete_pair_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="incomplete"):
            load_baselines(write_sections(tmp_path, BTC_LOWER_SECTION))

    def test_disagreeing_pair_rejected(self, tmp_path):
        other = ("bitcoin-upper", 2022, BTC_UPPER_KWH, 3.0)
        with pytest.raises(ValueError, match="disagrees"):
            load_baselines(write_sections(tmp_path, BTC_LOWER_SECTION, other))

    def test_sorted_output(self, tmp_path):
        bands = load_baselines(
            write_sections(tmp_path, VISA_SECTION, BTC_LOWER_SECTION, BTC_UPPER_SECTION)
        )
        assert [b.name for b in bands] == ["bitcoin", "visa"]


# Energy units of a baselines cfg, read into kWh. Expected values are
# recomputed from the exact factors (1 kWh = 3.6e6 J, 1 GJ = 1e9 J,
# 1 TWh = 1e9 kWh) rather than copied from any rounded table.


def write_cfg(tmp_path, amount, unit):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"[visa]\nyear = 2021\namount = {amount}\nunit = {unit}\ntps = 1736\n")
    return cfg


def annual_kwh(tmp_path, amount, unit):
    (band,) = load_baselines(write_cfg(tmp_path, amount, unit))
    assert band.annual_kwh_lower == band.annual_kwh_upper
    return band.annual_kwh_lower


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
            BaselineBand("visa", 2021, 1736.0, -1.0, -1.0)
        cfg = write_cfg(tmp_path, "-1", "kWh")
        with pytest.raises(ValueError, match=rf"^{cfg} \[visa\]: annual_kwh must be"):
            load_baselines(cfg)

    def test_rejects_non_finite(self, tmp_path):
        for amount in ("nan", "inf"):
            with pytest.raises(ValueError, match="annual_kwh must be finite and positive"):
                BaselineBand("visa", 2021, 1736.0, float(amount), float(amount))
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


# Reference loader: one record per cfg section, paired into bands afterwards by
# ``reference_summarize``, which the loader also runs once to validate the pairs.
# ``load_baselines`` must give equal names, years, throughputs and figures, or
# fail naming the path. It refuses two more files: a lower/upper pair whose lower
# amount is above its upper one, and a name given both alone and as a complete
# pair (here reported as an incomplete pair).

_REFERENCE_JOULES_PER_UNIT = {
    "J": 1.0,
    "kWh": JOULES_PER_KWH,
    "GJ": 1e9,
    "TWh": 1e9 * JOULES_PER_KWH,
}


class ReferenceRecord(Record):
    name: str
    period_year: int
    annual_kwh: float
    tps: float

    def __init__(self, name, period_year, annual_kwh, tps):
        object.__setattr__(self, "name", validate_network_id(name))
        if not dt.MINYEAR <= period_year <= dt.MAXYEAR:
            raise ValueError(
                f"year must be a count in [{dt.MINYEAR}, {dt.MAXYEAR}] for {name!r}, "
                f"got {period_year!r}"
            )
        object.__setattr__(self, "period_year", period_year)
        for field, value in (("annual_kwh", annual_kwh), ("tps", tps)):
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{field} must be finite and positive for {name!r}, got {value!r}")
            object.__setattr__(self, field, value)


def reference_per_second_energy(record):
    return record.annual_kwh / SECONDS_PER_YEAR


def reference_per_tx(record):
    return reference_per_second_energy(record) / record.tps


def reference_load(path):
    where = os.fspath(path)
    parser = configparser.ConfigParser()
    records = []
    section = None
    try:
        if not parser.read(where, encoding="utf-8"):
            raise FileNotFoundError(f"no baseline config at {where!r}")
        for section in parser.sections():
            sec = parser[section]
            year, amount, unit = int(sec["year"]), float(sec["amount"]), sec["unit"]
            if unit not in _REFERENCE_JOULES_PER_UNIT:
                raise ValueError(
                    f"unit {unit!r} is not one of {', '.join(_REFERENCE_JOULES_PER_UNIT)}"
                )
            kwh = amount * (_REFERENCE_JOULES_PER_UNIT[unit] / JOULES_PER_KWH)
            records.append(ReferenceRecord(section, year, kwh, float(sec["tps"])))
        section = None
        reference_summarize(records)
    except KeyError as exc:
        raise ValueError(f"{where} [{section}]: missing key {exc.args[0]!r}") from exc
    except (configparser.Error, ValueError) as exc:
        place = where if section is None else f"{where} [{section}]"
        raise ValueError(f"{place}: {' '.join(str(exc).split())}") from exc
    return records


def reference_summarize(records):
    """Each band as a dict of the figures a :class:`BaselineBand` derives."""
    singles = {}
    for record in records:
        stem, _, suffix = record.name.rpartition("-")
        if suffix in ("lower", "upper") and stem:
            singles.setdefault(stem, {})[suffix] = record
        else:
            singles.setdefault(record.name, {})["only"] = record

    bands = []
    for stem in sorted(singles):
        variants = singles[stem]
        if "only" in variants and len(variants) == 1:
            lo = hi = variants["only"]
        elif set(variants) == {"lower", "upper"}:
            lo, hi = variants["lower"], variants["upper"]
            if lo.tps != hi.tps or lo.period_year != hi.period_year:
                raise ValueError(f"baseline pair {stem!r} disagrees on tps or year")
        else:
            raise ValueError(f"baseline {stem!r} has an incomplete lower/upper pair")
        per_second = (reference_per_second_energy(lo), reference_per_second_energy(hi))
        kw = [rate * SECONDS_PER_HOUR for rate in per_second]
        per_tx = (reference_per_tx(lo), reference_per_tx(hi))
        bands.append(
            {
                "name": stem,
                "period_year": lo.period_year,
                "tps": lo.tps,
                "kwh_per_second_lower": per_second[0],
                "kwh_per_second_upper": per_second[1],
                "kw_lower": kw[0],
                "kw_mid": (kw[0] + kw[1]) / 2.0,
                "kw_upper": kw[1],
                "kwh_per_tx_lower": per_tx[0],
                "kwh_per_tx_mid": (per_tx[0] + per_tx[1]) / 2.0,
                "kwh_per_tx_upper": per_tx[1],
            }
        )
    return bands


UNITS = st.sampled_from(["J", "kWh", "GJ", "TWh"])
# The sections given for one stem, mostly the two shapes both loaders accept.
KINDS = st.sampled_from(
    [("alone",)] * 3
    + [("lower", "upper")] * 4
    + [("alone", "lower", "upper"), ("lower",), ("upper",), ("alone", "upper")]
)
# A faulty section: a field that no loader accepts.
FAULTS = st.sampled_from(
    [("unit", "kW"), ("amount", "0"), ("amount", "nan"), ("tps", "-1"), ("year", "0")]
)


@st.composite
def baseline_files(draw):
    """Cfg text for stems given alone, as ``-lower``/``-upper`` halves or both, and the
    ``{stem: {kind: (year, annual kWh, tps)}}`` of its well-formed sections."""
    stems = st.sampled_from(["bitcoin", "visa", "a-b", "x"])
    stems = draw(st.lists(stems, min_size=1, max_size=3, unique=True))
    sections, parsed = [], {}
    for stem in stems:
        kinds = draw(KINDS)
        shared_year, shared_tps = draw(st.integers(1, 9999)), draw(st.floats(1e-2, 1e4))
        for kind in kinds:
            year = shared_year if draw(st.integers(0, 7)) else draw(st.integers(1, 9999))
            tps = shared_tps if draw(st.integers(0, 7)) else draw(st.floats(1e-2, 1e4))
            unit, amount = draw(UNITS), draw(st.floats(1e-3, 1e3))
            cells = {"year": str(year), "amount": repr(amount), "unit": unit, "tps": repr(tps)}
            if draw(st.integers(0, 11)) == 0:
                field, bad = draw(FAULTS)
                cells[field] = bad
            else:
                kwh = amount * (_REFERENCE_JOULES_PER_UNIT[unit] / JOULES_PER_KWH)
                parsed.setdefault(stem, {})[kind] = (year, kwh, tps)
            name = stem if kind == "alone" else f"{stem}-{kind}"
            sections.append(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in cells.items()))
    return "".join(draw(st.permutations(sections))), parsed


def fix_messages(where, parsed):
    """The errors of the two refusals the reference loader lacks, one per stem they hit."""
    messages = set()
    for stem, kinds in parsed.items():
        if {"lower", "upper"} <= kinds.keys():
            (year_lo, lo, tps_lo), (year_hi, hi, tps_hi) = kinds["lower"], kinds["upper"]
            if "alone" in kinds:
                messages.add(
                    f"{where}: baseline {stem!r} is given both alone and as a lower/upper pair"
                )
            elif (year_lo, tps_lo) == (year_hi, tps_hi) and lo > hi:
                messages.add(
                    f"{where}: baseline {stem!r} has annual_kwh_lower {lo!r} above "
                    f"annual_kwh_upper {hi!r}"
                )
    return messages


def outcome(load, path):
    try:
        return load(path), None
    except ValueError as exc:
        return None, str(exc)


class TestLoaderMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(case=baseline_files())
    def test_same_bands_or_path_named_refusal(self, case):
        text, parsed = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "baselines.cfg"
            path.write_text(text, encoding="utf-8")
            bands, error = outcome(load_baselines, path)
            records, reference_error = outcome(reference_load, path)
        fixes = fix_messages(str(path), parsed)
        if reference_error is not None:
            assert error is not None and error.startswith(f"{path}"), error
            assert error == reference_error or error in fixes, (error, reference_error)
        elif error is not None:
            assert error == min(fixes), (error, fixes)
        else:
            assert not fixes
            expected = reference_summarize(records)
            assert [{k: getattr(b, k) for k in e} for b, e in zip(bands, expected)] == expected
            assert len(bands) == len(expected)
