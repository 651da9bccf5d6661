"""Deterministic rendering of fit summaries, comparison tables, chart series."""

import datetime as dt
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posenergy.baselines import load_baselines
from posenergy.chart import PointMarker, ReferenceBand
from posenergy.core import NetworkObservation
from posenergy.estimator import ConsumptionBand
from posenergy.ingestion import bundled, load_bounds, load_snapshots
from posenergy.report import (
    TABLE_HEADER,
    baseline_chart_elements,
    chart_csv,
    chart_csv_document,
    chart_rows,
    comparison_estimates,
    comparison_rows,
    fit_networks,
    fit_rows,
    format_kw,
    format_kwh_per_tx,
    format_series,
    observation_markers,
    render_grid_csv,
    render_grid_text,
    select_networks,
)


def bundle():
    snapshot = load_snapshots(bundled("observations.csv"))
    bounds = load_bounds(bundled("bounds.csv"))
    baselines = load_baselines(bundled("baselines.cfg"))
    return snapshot, bounds, baselines


class TestFormatters:
    def test_kw_two_decimals(self):
        assert format_kw(6.4493) == "6.45"
        assert format_kw(0.0) == "0.00"
        assert format_kw(1143.61) == "1143.61"

    def test_kwh_per_tx_six_significant(self):
        assert format_kwh_per_tx(3.1514759e-06) == "3.15148e-06"
        assert format_kwh_per_tx(624.4104) == "624.41"

    def test_series_ten_significant(self):
        assert format_series(1 / 3) == "0.3333333333"
        assert format_series(7295.0) == "7295"


class TestObservedNetworks:
    def test_sorted_and_deduplicated(self):
        rows = [
            NetworkObservation("tezos", "2023-01-31", 407, 0.9),
            NetworkObservation("near", "2023-01-31", 158, 6.33),
            NetworkObservation("near", "2023-02-01", 158, 6.4),
        ]
        assert list(select_networks(rows)) == ["near", "tezos"]


OBSERVATIONS = st.lists(
    st.builds(
        NetworkObservation,
        network=st.sampled_from(["bnb", "near", "tezos", "tron"]),
        date=st.dates(dt.date(2022, 1, 1), dt.date(2022, 12, 31)),
        validators=st.integers(0, 500),
        tps=st.floats(0.0, 1e4),
    ),
    max_size=30,
)


def as_multisets(groups):
    return {network: Counter(rows) for network, rows in groups.items()}


class TestSelectNetworks:
    @given(observations=OBSERVATIONS, data=st.data())
    def test_order_and_repeats_do_not_matter(self, observations, data):
        observed = sorted({o.network for o in observations})
        requested = data.draw(st.lists(st.sampled_from(observed), max_size=6)) if observed else []
        shuffled = data.draw(st.permutations(observations))
        groups = select_networks(observations, requested)
        assert list(groups) == (sorted(set(requested)) if requested else observed)
        for network, rows in groups.items():
            assert rows
            assert all(o.network == network for o in rows)
            assert Counter(rows) == Counter(o for o in observations if o.network == network)
        again = select_networks(shuffled, requested[::-1] + requested)
        assert as_multisets(again) == as_multisets(groups)

    def test_missing_network_named(self):
        rows = [NetworkObservation("near", "2023-01-31", 158, 6.33)]
        with pytest.raises(ValueError, match="^no observations for network 'dogecoin'$"):
            select_networks(rows, ["near", "dogecoin"])


class TestFitNetworks:
    def test_all_bundled_networks(self):
        snapshot, _, _ = bundle()
        fits = fit_networks(snapshot.observations)
        assert len(fits) == 14
        assert [f.network for f in fits] == sorted(f.network for f in fits)
        assert all(f.origin_included for f in fits)

    def test_unknown_network(self):
        snapshot, _, _ = bundle()
        with pytest.raises(ValueError, match="no observations"):
            fit_networks(snapshot.observations, networks=["dogecoin"])

    def test_rows_header(self):
        snapshot, _, _ = bundle()
        header, rows = fit_rows(fit_networks(snapshot.observations, networks=["near"]))
        assert header == ("network", "intercept", "slope", "r2", "n_points", "origin_included")
        assert rows[0][0] == "near"
        assert rows[0][5] == "true"


class TestComparisonTable:
    def test_network_rows_then_baselines(self):
        snapshot, bounds, baselines = bundle()
        estimates = comparison_estimates(snapshot.observations, bounds)
        rows = comparison_rows(estimates, baselines)
        names = [r[0] for r in rows]
        assert len(rows) == 16  # 14 networks + bitcoin + visa
        assert names[:14] == sorted(names[:14])
        assert names[14:] == ["bitcoin", "visa"]

    def test_hedera_cells(self):
        snapshot, bounds, _ = bundle()
        (estimate,) = comparison_estimates(snapshot.observations, bounds, networks=["hedera"])
        (row,) = comparison_rows([estimate])
        assert dict(zip(TABLE_HEADER, row)) == {
            "name": "hedera",
            "validators": "26",
            "tps": format_series(568.45),
            "kw_lower": format_kw(estimate.global_kw_lower),
            "kw_mid": format_kw(6.4493),
            "kw_upper": format_kw(estimate.global_kw_upper),
            "kwh_per_tx_lower": format_kwh_per_tx(estimate.kwh_per_tx_lower),
            "kwh_per_tx_mid": format_kwh_per_tx(estimate.kwh_per_tx_mid),
            "kwh_per_tx_upper": format_kwh_per_tx(estimate.kwh_per_tx_upper),
        }
        assert float(row[7]) == pytest.approx(3.1515e-06, rel=1e-4)

    def test_baseline_rows_have_no_validators(self):
        _, _, baselines = bundle()
        rows = comparison_rows([], baselines)
        assert all(r[1] == "" for r in rows)
        bitcoin = dict(zip(TABLE_HEADER, rows[0]))
        assert bitcoin["kwh_per_tx_lower"] == "624.41"
        band = baselines[0]
        assert bitcoin["kw_lower"] == format_kw(band.kw_lower)
        assert bitcoin["kw_upper"] == format_kw(band.kw_upper)
        assert bitcoin["kw_mid"] == format_kw((band.kw_lower + band.kw_upper) / 2)

    def test_missing_bounds(self):
        snapshot, _, _ = bundle()
        with pytest.raises(ValueError, match="no power bounds"):
            comparison_estimates(snapshot.observations, {}, networks=["near"])

    def test_csv_rendering(self):
        snapshot, bounds, baselines = bundle()
        estimates = comparison_estimates(snapshot.observations, bounds, networks=["hedera"])
        text = render_grid_csv(TABLE_HEADER, comparison_rows(estimates, baselines))
        lines = text.splitlines()
        assert lines[0].startswith("name,validators,tps,kw_lower")
        assert lines[1].startswith("hedera,26,568.45,4.37,6.45,8.53,")
        assert text.endswith("\n")
        # baseline rows leave the validators cell empty
        assert lines[2].startswith("bitcoin,,2.56,")

    def test_text_rendering_aligns(self):
        snapshot, bounds, _ = bundle()
        estimates = comparison_estimates(snapshot.observations, bounds, networks=["hedera"])
        text = render_grid_text(TABLE_HEADER, comparison_rows(estimates))
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["name", "validators"]
        assert set(lines[1]) <= {"-", " "}

    def test_grid_renderers_match_table_shape(self):
        header = ("a", "b")
        rows = [("x", "1"), ("y", "22")]
        assert render_grid_csv(header, rows) == "a,b\nx,1\ny,22\n"
        text = render_grid_text(header, rows)
        assert text.splitlines()[0].rstrip() == "a   b"


def chart_cells(*args, **kwargs):
    """The cells of each line :func:`chart_rows` returns."""
    return [line.rstrip("\n").split(",") for line in chart_rows(*args, **kwargs)]


class TestChartSeries:
    def test_rows_sorted_and_flagged(self):
        bands = [
            ConsumptionBand("tezos", (1.0, 20.0), (1e-5, 0.0), (1e-4, 0.0), (True, False)),
            ConsumptionBand("near", (1.0,), (2e-6,), (5e-5,), (True,)),
        ]
        rows = chart_cells(bands)
        assert [r[0] for r in rows] == ["near", "tezos", "tezos"]
        assert rows[1][4] == "true"
        assert rows[2][4] == "false"

    def test_reference_band_pinned_to_grid_extremes(self):
        bands = [ConsumptionBand("near", (0.01, 100.0), (1e-5, 1e-6), (1e-4, 1e-5), (True, True))]
        ref = ReferenceBand("bitcoin", 624.41, 1662.78)
        rows = chart_cells(bands, reference_bands=[ref])
        ref_rows = [r for r in rows if r[0] == "bitcoin"]
        assert len(ref_rows) == 2
        assert [r[1] for r in ref_rows] == ["0.01", "100"]
        assert ref_rows[0][2] == format_series(624.41)

    def test_markers_appended(self):
        bands = [ConsumptionBand("near", (1.0,), (1e-5,), (1e-4,), (True,))]
        rows = chart_cells(bands, baseline_markers=[PointMarker("visa", 1736.0, 0.0033)])
        assert rows[-1][0] == "visa"
        assert rows[-1][2] == rows[-1][3]

    def test_band_name_is_a_cell_not_a_format(self):
        bands = [ConsumptionBand("a%sb%%", (1.0, 2.0), (1e-5, 0.0), (1e-4, 0.0), (True, False))]
        text = "".join(chart_csv_document(bands))
        assert text == chart_csv(chart_rows(bands))
        assert text.splitlines()[1] == "a%sb%%,1,1e-05,0.0001,true"

    def test_csv_header(self):
        text = chart_csv([])
        assert text == "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical\n"


class TestChartElements:
    def test_baselines_split_into_marker_and_band(self):
        _, _, baselines = bundle()
        markers, refs = baseline_chart_elements(baselines)
        assert [m.label for m in markers] == ["visa"]
        assert [r.label for r in refs] == ["bitcoin"]
        assert markers[0].kwh_per_tx == pytest.approx(0.00327773, abs=5e-9)
        assert refs[0].kwh_per_tx_lower == pytest.approx(624.41, abs=0.005)

    def test_observation_markers_two_per_network(self):
        snapshot, bounds, _ = bundle()
        markers = observation_markers(snapshot.observations, bounds, ["hedera", "near"])
        assert len(markers) == 4
        hedera = [m for m in markers if m.label == "hedera"]
        assert hedera[0].tps == 568.45
        energies = sorted(m.kwh_per_tx for m in hedera)
        assert energies[0] == pytest.approx(26 * 168.10 / (568.45 * 3.6e6), rel=1e-12)
        assert energies[1] == pytest.approx(26 * 328.00 / (568.45 * 3.6e6), rel=1e-12)
