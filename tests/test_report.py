"""Deterministic rendering of fit summaries, comparison tables, chart series."""

import datetime as dt
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_estimator import band_points

from posenergy import report
from posenergy.baselines import load_baselines
from posenergy.chart import PointMarker, ReferenceBand
from posenergy.core import NetworkObservation
from posenergy.estimator import ConsumptionBand, LogGrid
from posenergy.ingestion import bundled, load_bounds, load_profiles, load_snapshots
from posenergy.report import (
    TABLE_HEADER,
    baseline_chart_elements,
    chart_bands,
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

    def test_prices_latest_observation(self):
        rows = [
            NetworkObservation("tezos", "2022-06-01", 410, 1.1),
            NetworkObservation("tezos", "2023-01-31", 407, 0.9),
            NetworkObservation("tezos", "2021-01-01", 0, 0.0),
            NetworkObservation("near", "2023-02-10", 158, 6.33),
        ]
        _, bounds, _ = bundle()
        (tezos,) = comparison_estimates(rows, bounds, networks=["tezos"])
        assert (tezos.date, tezos.validators, tezos.tps) == (dt.date(2023, 1, 31), 407, 0.9)

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


def fit_band(name, intercept, slope, grid, watts=(36.0, 360.0)):
    """The band of a fit over ``grid``, up to its last point, under any ``name``.

    A band reads only these attributes of its fit and profile, so a library
    caller may name it with any text, as a marker or reference band is.
    """
    fit = SimpleNamespace(network=name, intercept=intercept, slope=slope)
    bounds = SimpleNamespace(lower_w=watts[0], upper_w=watts[1])
    profile = SimpleNamespace(network=name, bounds=bounds, max_tps=grid[-1])
    return ConsumptionBand(fit, profile, grid)


def chart_cells(*args, **kwargs):
    """The cells of each line :func:`chart_rows` returns."""
    return [line.rstrip("\n").split(",") for line in chart_rows(*args, **kwargs)]


class TestChartSeries:
    def test_rows_sorted_and_flagged(self):
        bands = [  # a falling fit, physical at 1 tx/s only, and a proportional one
            fit_band("tezos", 440.7, -24.6, (1.0, 20.0)),
            fit_band("near", 0.0, 24.96, (1.0,)),
        ]
        rows = chart_cells(bands)
        assert [r[0] for r in rows] == ["near", "tezos", "tezos"]
        assert rows[1][4] == "true"
        assert rows[2][4] == "false"

    def test_reference_band_pinned_to_grid_extremes(self):
        bands = [fit_band("near", 20.0, 0.0, (0.01, 100.0))]
        ref = ReferenceBand("bitcoin", 624.41, 1662.78)
        rows = chart_cells(bands, reference_bands=[ref])
        ref_rows = [r for r in rows if r[0] == "bitcoin"]
        assert len(ref_rows) == 2
        assert [r[1] for r in ref_rows] == ["0.01", "100"]
        assert ref_rows[0][2] == format_series(624.41)

    def test_markers_appended(self):
        bands = [fit_band("near", 0.0, 24.96, (1.0,))]
        rows = chart_cells(bands, baseline_markers=[PointMarker("visa", 1736.0, 0.0033)])
        assert rows[-1][0] == "visa"
        assert rows[-1][2] == rows[-1][3]

    def test_band_name_is_a_cell_not_a_format(self):
        # a falling fit: 1.5 validators per tx/s at 1 tx/s, none at 2
        bands = [fit_band("a%sb%%", 3.0, -1.5, (1.0, 2.0), (24.0, 240.0))]
        text = "".join(chart_csv_document(bands))
        assert text == chart_csv(chart_rows(bands))
        lower, upper = (format_series(values[0]) for values in bands[0].kwh_per_tx_at([1.0]))
        assert (lower, upper) == ("1e-05", "0.0001")
        assert text.splitlines()[1:] == ["a%sb%%,1,1e-05,0.0001,true", "a%sb%%,2,0,0,false"]

    def test_reference_band_without_band_refused(self):
        # reference bands are pinned to the grid's extremes, so they need a band
        ref = ReferenceBand("bitcoin", 624.41, 1662.78)
        with pytest.raises(ValueError, match=r"^reference bands need a band to span$"):
            chart_rows([], [], [ref])
        with pytest.raises(ValueError, match=r"^reference bands need a band to span$"):
            chart_csv_document([], [], [ref])
        # a marker carries its own throughput, so it needs none
        assert chart_cells([], [PointMarker("visa", 1736.0, 0.0033)])[0][0] == "visa"

    def test_csv_header(self):
        text = chart_csv([])
        assert text == "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical\n"


# Names as a library caller may give them: format directives and every line
# break str.splitlines knows, but never "\n", which ends a CSV line.
CHART_NAMES = st.one_of(
    st.lists(
        st.sampled_from(["%", "%s", "%%", "%.10g", ",", "\r", "\x85", "\u2028", "{}", "near"]),
        max_size=4,
    ).map("".join),
    st.text(st.characters(blacklist_characters="\n"), max_size=8),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Fit coefficients: zeros of either sign, so origin fits are common, or any moderate value.
COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e3, max_value=1e3))
# Draws in watts, lower then upper.
WATTS = st.floats(min_value=1e-3, max_value=1e3).flatmap(
    lambda lower: st.floats(min_value=lower, max_value=1e6).map(lambda upper: (lower, upper))
)


@st.composite
def chart_band(draw):
    """The band of a generated fit under any name, over a set of throughputs or a default grid.

    The fit rises, falls, is flat or is through the origin, so the physical
    run is a prefix, a suffix, the whole grid or nothing.
    """
    grid = draw(st.one_of(
        st.sets(st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=50)
        .map(sorted).map(tuple),
        st.builds(LogGrid, st.floats(1e-3, 1.0), st.floats(2.0, 1e6), st.integers(2, 50)),
    ))
    return fit_band(draw(CHART_NAMES), draw(COEFFICIENTS), draw(COEFFICIENTS), grid, draw(WATTS))


def per_row_chart_lines(bands, markers, refs):
    """Each chart CSV line formatted by itself: the reference for the per-run formatter."""
    rows = [
        (b.network, t, lo, up, "true" if flag else "false")
        for b in sorted(bands, key=lambda b: b.network)
        for t, lo, up, flag in band_points(b)
    ]
    extremes = [t for b in bands for t in (b.grid[0], b.grid[-1])]
    rows += [
        (r.label, t, r.kwh_per_tx_lower, r.kwh_per_tx_upper, "true")
        for r in sorted(refs, key=lambda r: r.label)
        for t in (min(extremes), max(extremes))
    ]
    rows += [
        (m.label, m.tps, m.kwh_per_tx, m.kwh_per_tx, "true")
        for m in sorted(markers, key=lambda m: (m.label, m.tps))
    ]
    return ["%s,%.10g,%.10g,%.10g,%s\n" % row for row in rows]


class TestChartRunFormatting:
    @settings(deadline=None, max_examples=150)
    @given(
        bands=st.lists(chart_band(), min_size=1, max_size=4),
        markers=st.lists(st.builds(PointMarker, CHART_NAMES, FINITE, FINITE), max_size=3),
        refs=st.lists(st.builds(ReferenceBand, CHART_NAMES, FINITE, FINITE), max_size=2),
    )
    def test_matches_per_row_formatter(self, bands, markers, refs):
        expected = per_row_chart_lines(bands, markers, refs)
        header = "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical\n"
        assert "".join(chart_csv_document(bands, markers, refs)) == header + "".join(expected)
        # one item per point and per anchor, each ending in its one "\n"
        rows = chart_rows(bands, markers, refs)
        assert len(rows) == sum(len(b.grid) for b in bands) + 2 * len(refs) + len(markers)
        assert all(row.count("\n") == 1 and row.endswith("\n") for row in rows)
        assert rows == expected


class TestChartBlocks:
    """A band's CSV goes out in blocks of at most ``_CHART_BLOCK_ROWS`` of its own rows."""

    @settings(deadline=None, max_examples=150)
    @given(bands=st.lists(chart_band(), min_size=1, max_size=4), block_rows=st.integers(1, 7))
    @example(  # lone surrogates, which a library caller may put in a name, survive the bytes
        bands=[fit_band("\ud800%", 0.0, 0.5, (1.0, 2.0, 3.0)),
               fit_band("\udc80,", -1.0, 1.0, (0.5, 1.0, 2.0, 3.0, 4.0))],
        block_rows=2,
    )
    def test_block_edges_keep_the_rows(self, bands, block_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "_CHART_BLOCK_ROWS", block_rows)
            chunks = list(chart_csv_document(bands))
        header = "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical\n"
        assert "".join(chunks) == header + "".join(per_row_chart_lines(bands, [], []))
        assert (chunks[0], chunks[-1]) == (header, "")
        blocks = iter(chunks[1:-1])
        for band in sorted(bands, key=lambda b: b.network):
            lines, taken = per_row_chart_lines([band], [], []), 0
            while taken < len(lines):
                block = [line + "\n" for line in next(blocks).split("\n")[:-1]]
                assert 1 <= len(block) <= block_rows
                assert block == lines[taken:taken + len(block)]
                taken += len(block)
        assert next(blocks, None) is None

    def test_document_memory_does_not_grow_with_the_grid(self):
        snapshot, bounds, baselines = bundle()
        profiles = load_profiles(bundled("profiles.csv"), bounds)
        elements = baseline_chart_elements(baselines)

        def peak_bytes(n_points):
            bands = chart_bands(snapshot.observations, profiles, n_points=n_points)
            tracemalloc.start()
            try:
                for _ in chart_csv_document(bands, *elements):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(20_000) <= 1.25 * peak_bytes(2_000)


@st.composite
def flat_run_band(draw):
    """The band of an origin fit, intercept ``0.0`` or ``-0.0``, whose every run is constant.

    The slope puts the first physical point anywhere on a grid of 1-60
    points, or nowhere.
    """
    name = draw(st.lists(st.sampled_from(["%", "%%", "%s", "%.10g", ",", "near"]),
                         min_size=1, max_size=4).map("".join))
    grid = tuple(sorted(draw(st.sets(st.floats(min_value=1e-3, max_value=1e3),
                                     min_size=1, max_size=60))))
    slope = 1.0 / draw(st.floats(min_value=1e-4, max_value=1e4))
    return fit_band(name, draw(st.sampled_from([0.0, -0.0])), slope, grid, draw(WATTS))


class TestFlatRunFormatting:
    @settings(deadline=None, max_examples=150)
    @given(bands=st.lists(flat_run_band(), min_size=1, max_size=3))
    @example(bands=[  # a negative-zero intercept: the non-physical values print as 0, not -0
        fit_band("a%b", -0.0, 0.5, (1.0, 2.0, 3.0))
    ])
    def test_matches_format_series_per_row(self, bands):
        expected = [
            f"{b.network},{format_series(t)},{format_series(lo)},{format_series(up)},"
            f"{'true' if flag else 'false'}\n"
            for b in sorted(bands, key=lambda b: b.network)
            for t, lo, up, flag in band_points(b)
        ]
        header = "network,tps,kwh_per_tx_lower,kwh_per_tx_upper,physical\n"
        assert "".join(chart_csv_document(bands)) == header + "".join(expected)


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

    def test_observation_markers_are_the_estimates_bounds(self):
        # the table and the chart price a latest observation through one path
        snapshot, bounds, _ = bundle()
        estimates = comparison_estimates(snapshot.observations, bounds)
        markers = observation_markers(snapshot.observations, bounds, list(bounds))
        assert markers == [
            PointMarker(e.network, e.tps, kwh)
            for e in estimates
            for kwh in (e.kwh_per_tx_lower, e.kwh_per_tx_upper)
        ]

    def test_observation_markers_without_bounds_refused(self):
        snapshot, _, _ = bundle()
        with pytest.raises(ValueError, match=r"^no power bounds for network 'near'$"):
            observation_markers(snapshot.observations, {}, ["near"])

    def test_observation_markers_skip_zero_throughput(self):
        snapshot, bounds, _ = bundle()
        idle = NetworkObservation("near", "2023-02-01", 158, 0.0)
        markers = observation_markers([*snapshot.observations, idle], bounds, ["hedera", "near"])
        assert [m.label for m in markers] == ["hedera", "hedera"]
