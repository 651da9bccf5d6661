"""SVG chart rendering: geometry, polygon coordinates, determinism."""

import math
import re
from itertools import compress

from xml.etree import ElementTree

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posenergy.chart import (
    ChartGeometry,
    PointMarker,
    ReferenceBand,
    chart_geometry,
    render_chart,
)
from posenergy.estimator import ConsumptionBand


def band(network="polkadot", points=None):
    """A band from (tps, lower, upper, physical) rows, transposed into columns."""
    if points is None:
        points = [
            (0.1, 1e-4, 1e-3, True),
            (1.0, 1e-5, 1e-4, True),
            (10.0, 1e-6, 1e-5, True),
        ]
    return ConsumptionBand(network, *zip(*points))


class TestChartGeometry:
    def test_decade_rounding(self):
        geom = chart_geometry([band()])
        # tps spans [0.1, 10] -> log10 in [-1, 1]; energy spans [1e-6, 1e-3]
        assert geom.x_log_min == -1.0
        assert geom.x_log_max == 1.0
        assert geom.y_log_min == -6.0
        assert geom.y_log_max == -3.0

    def test_degenerate_range_widens_one_decade(self):
        points = [(2.0, 5e-5, 5e-5, True), (3.0, 5e-5, 5e-5, True)]
        geom = chart_geometry([band(points=points)])
        assert geom.x_log_max > geom.x_log_min
        assert geom.y_log_max > geom.y_log_min

    def test_markers_and_references_extend_range(self):
        geom = chart_geometry(
            [band()],
            markers=[PointMarker("visa", 1736.0, 0.00327773)],
            reference_bands=[ReferenceBand("bitcoin", 624.41, 1662.78)],
        )
        assert geom.x_log_max >= math.log10(1736.0)
        assert geom.y_log_max >= math.log10(1662.78)

    def test_non_physical_points_ignored(self):
        points = [
            (1.0, 1e-5, 1e-4, True),
            (10.0, 1e-6, 1e-5, True),
            (100.0, 0.0, 0.0, False),
        ]
        geom = chart_geometry([band(points=points)])
        assert geom.x_log_max == 1.0

    def test_nothing_to_plot(self):
        points = [(1.0, 0.0, 0.0, False)]
        with pytest.raises(ValueError, match="nothing to plot"):
            chart_geometry([band(points=points)])

    def test_axis_mapping_corners(self):
        geom = ChartGeometry(1200, 800, 0.0, 2.0, -6.0, -2.0)
        assert geom.x_px(1.0) == pytest.approx(geom.plot_left)
        assert geom.x_px(100.0) == pytest.approx(geom.plot_right)
        assert geom.y_px(1e-2) == pytest.approx(geom.plot_top)
        assert geom.y_px(1e-6) == pytest.approx(geom.plot_bottom)
        # halfway in log space is halfway in pixels
        assert geom.x_px(10.0) == pytest.approx((geom.plot_left + geom.plot_right) / 2)


def list_geometry(bands, markers=(), reference_bands=(), width=1200, height=800):
    """The list-based chart_geometry that kept every plottable value: the reference."""
    xs = [m.tps for m in markers]
    ys = [m.kwh_per_tx for m in markers]
    ys += [v for r in reference_bands for v in (r.kwh_per_tx_lower, r.kwh_per_tx_upper)]
    for b in bands:
        xs += compress(b.tps, b.physical)
        ys += compress(b.kwh_per_tx_lower, b.physical)
        ys += compress(b.kwh_per_tx_upper, b.physical)
    xs = [x for x in xs if x > 0]
    ys = [y for y in ys if y > 0]
    if not xs or not ys:
        raise ValueError("nothing to plot: no physical points in range")
    x_log_min = math.floor(math.log10(min(xs)))
    x_log_max = math.ceil(math.log10(max(xs)))
    y_log_min = math.floor(math.log10(min(ys)))
    y_log_max = math.ceil(math.log10(max(ys)))
    if x_log_min == x_log_max:
        x_log_max += 1
    if y_log_min == y_log_max:
        y_log_max += 1
    return ChartGeometry(width, height, float(x_log_min), float(x_log_max),
                         float(y_log_min), float(y_log_max))


# 0.0 is drawn often: it is the value of every non-physical point and must be skipped.
VALUES = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9))


@st.composite
def generated_band(draw):
    """A valid band whose physical flags come in runs, some bands all non-physical."""
    tps = sorted(draw(st.sets(st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=12)))
    physical = draw(st.lists(st.booleans(), min_size=len(tps), max_size=len(tps)))
    rows = []
    for t, ok in zip(tps, physical):
        lo, up = sorted((draw(VALUES), draw(VALUES))) if ok else (0.0, 0.0)
        rows.append((t, lo, up, ok))
    return band(draw(st.sampled_from(["near", "tezos", "tron"])), rows)


class TestChartGeometryProperty:
    @given(
        bands=st.lists(generated_band(), max_size=4),
        markers=st.lists(st.builds(PointMarker, st.just("visa"), VALUES, VALUES), max_size=3),
        refs=st.lists(st.builds(ReferenceBand, st.just("bitcoin"), VALUES, VALUES), max_size=2),
    )
    def test_matches_list_based_geometry(self, bands, markers, refs):
        try:
            expected = list_geometry(bands, markers, refs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                chart_geometry(bands, markers, refs)
        else:
            assert chart_geometry(bands, markers, refs) == expected


class TestRenderChart:
    def parse_polygons(self, svg):
        out = []
        for match in re.finditer(r'<polygon points="([^"]+)"', svg):
            out.append(
                [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
            )
        return out

    def test_returns_wellformed_svg(self):
        svg, geom = render_chart([band()], title="bands")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="1200" height="800"' in svg
        assert "throughput (tx/s)" in svg
        assert "energy per transaction (kWh/tx)" in svg
        assert ">bands</text>" in svg
        assert isinstance(geom, ChartGeometry)

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"title": "R&D <draft>"}, "R&D <draft>"),
            ({"markers": [PointMarker("a<b", 1.0, 1e-5)]}, "a<b"),
            ({"reference_bands": [ReferenceBand("x&y", 1e-5, 1e-4)]}, "x&y"),
        ],
        ids=["title", "marker", "reference-band"],
    )
    def test_text_is_escaped(self, kwargs, text):
        svg, _ = render_chart([band()], **kwargs)
        root = ElementTree.fromstring(svg)
        assert text in [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_polygon_vertices_match_geometry(self):
        b = band()
        svg, geom = render_chart([b])
        polygons = self.parse_polygons(svg)
        assert len(polygons) == 1
        vertices = polygons[0]
        tps = list(compress(b.tps, b.physical))
        lower = list(compress(b.kwh_per_tx_lower, b.physical))
        upper = list(compress(b.kwh_per_tx_upper, b.physical))
        expected = [(geom.x_px(t), geom.y_px(v)) for t, v in zip(tps, lower)]
        expected += [(geom.x_px(t), geom.y_px(v)) for t, v in zip(reversed(tps), reversed(upper))]
        assert len(vertices) == len(expected)
        for (got_x, got_y), (want_x, want_y) in zip(vertices, expected):
            assert (f"{got_x:.2f}", f"{got_y:.2f}") == (f"{want_x:.2f}", f"{want_y:.2f}")

    def test_non_physical_gap_splits_polygons(self):
        points = [
            (0.1, 1e-4, 1e-3, True),
            (1.0, 1e-5, 1e-4, True),
            (10.0, 0.0, 0.0, False),
            (100.0, 1e-6, 1e-5, True),
            (1000.0, 1e-7, 1e-6, True),
        ]
        svg, _ = render_chart([band(points=points)])
        assert len(self.parse_polygons(svg)) == 2

    def test_single_point_run_not_drawn(self):
        points = [
            (1.0, 1e-5, 1e-4, True),
            (10.0, 0.0, 0.0, False),
        ]
        svg, _ = render_chart([band(points=points)])
        assert self.parse_polygons(svg) == []

    def test_marker_circle_position(self):
        marker = PointMarker("visa", 1736.0, 0.00327773)
        svg, geom = render_chart([band()], markers=[marker])
        match = re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)
        assert match
        assert abs(float(match.group(1)) - geom.x_px(marker.tps)) <= 0.5
        assert abs(float(match.group(2)) - geom.y_px(marker.kwh_per_tx)) <= 0.5

    def test_reference_band_spans_plot_width(self):
        ref = ReferenceBand("bitcoin", 624.41, 1662.78)
        svg, geom = render_chart([band()], reference_bands=[ref])
        pattern = (
            r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" height="([\d.]+)" '
            r'fill="#[0-9a-f]{6}" fill-opacity="0.25"'
        )
        match = re.search(pattern, svg)
        assert match
        assert float(match.group(1)) == pytest.approx(geom.plot_left, abs=0.5)
        assert float(match.group(3)) == pytest.approx(
            geom.plot_right - geom.plot_left, abs=0.5
        )
        assert float(match.group(2)) == pytest.approx(geom.y_px(1662.78), abs=0.5)

    def test_legend_lists_every_label(self):
        svg, _ = render_chart(
            [band("polkadot"), band("tezos")],
            markers=[PointMarker("visa", 1736.0, 0.0033)],
            reference_bands=[ReferenceBand("bitcoin", 624.41, 1662.78)],
        )
        for label in ("polkadot", "tezos", "visa", "bitcoin"):
            assert f">{label}</text>" in svg

    def test_deterministic(self):
        args = (
            [band("polkadot"), band("tezos")],
            [PointMarker("visa", 1736.0, 0.0033)],
            [ReferenceBand("bitcoin", 624.41, 1662.78)],
        )
        first, _ = render_chart(*args)
        second, _ = render_chart(*args)
        assert first == second

    def test_distinct_band_colors(self):
        svg, _ = render_chart([band("polkadot"), band("tezos")])
        fills = re.findall(r'<polygon points="[^"]+" fill="(#[0-9a-f]{6})"', svg)
        assert len(fills) == 2
        assert fills[0] != fills[1]
