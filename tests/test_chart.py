"""SVG chart rendering: geometry, polygon coordinates, determinism."""

import math
import re
from itertools import compress, groupby

from xml.etree import ElementTree

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posenergy.chart import (
    PLOT_BOTTOM,
    PLOT_LEFT,
    PLOT_RIGHT,
    PLOT_TOP,
    ChartGeometry,
    PointMarker,
    ReferenceBand,
    chart_geometry,
    render_chart,
)
from posenergy.core import NetworkProfile, ValidatorPowerBounds
from posenergy.estimator import ConsumptionBand, consumption_band, default_grid
from posenergy.regression import RegressionFit


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
        geom = ChartGeometry(0.0, 2.0, -6.0, -2.0)
        assert geom.x_px(1.0) == pytest.approx(PLOT_LEFT)
        assert geom.x_px(100.0) == pytest.approx(PLOT_RIGHT)
        assert geom.y_px(1e-2) == pytest.approx(PLOT_TOP)
        assert geom.y_px(1e-6) == pytest.approx(PLOT_BOTTOM)
        # halfway in log space is halfway in pixels
        assert geom.x_px(10.0) == pytest.approx((PLOT_LEFT + PLOT_RIGHT) / 2)


def list_geometry(bands, markers=(), reference_bands=()):
    """The list-based chart_geometry that kept every plottable value: the reference.

    A marker or reference band counts only when all of its coordinates are
    positive; a band counts each positive physical value.
    """
    markers = [m for m in markers if m.tps > 0 and m.kwh_per_tx > 0]
    reference_bands = [
        r for r in reference_bands if r.kwh_per_tx_lower > 0 and r.kwh_per_tx_upper > 0
    ]
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
    return ChartGeometry(float(x_log_min), float(x_log_max), float(y_log_min), float(y_log_max))


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


def parse_polygons(svg):
    out = []
    for match in re.finditer(r'<polygon points="([^"]+)"', svg):
        out.append(
            [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
        )
    return out


class TestRenderChart:
    def test_returns_wellformed_svg(self):
        svg, geom = render_chart([band()])
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="1200" height="800"' in svg
        assert "throughput (tx/s)" in svg
        assert "energy per transaction (kWh/tx)" in svg
        assert isinstance(geom, ChartGeometry)

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"markers": [PointMarker("a<b", 1.0, 1e-5)]}, "a<b"),
            ({"reference_bands": [ReferenceBand("x&y", 1e-5, 1e-4)]}, "x&y"),
        ],
        ids=["marker", "reference-band"],
    )
    def test_text_is_escaped(self, kwargs, text):
        svg, _ = render_chart([band()], **kwargs)
        root = ElementTree.fromstring(svg)
        assert text in [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_polygon_vertices_match_geometry(self):
        b = band()
        svg, geom = render_chart([b])
        polygons = parse_polygons(svg)
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
        assert len(parse_polygons(svg)) == 2

    def test_single_point_run_not_drawn(self):
        points = [
            (1.0, 1e-5, 1e-4, True),
            (10.0, 0.0, 0.0, False),
        ]
        svg, _ = render_chart([band(points=points)])
        assert parse_polygons(svg) == []

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
        assert float(match.group(1)) == pytest.approx(PLOT_LEFT, abs=0.5)
        assert float(match.group(3)) == pytest.approx(PLOT_RIGHT - PLOT_LEFT, abs=0.5)
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


class TestPlacement:
    """A marker or reference band is ranged and drawn only if all its coordinates are positive."""

    @pytest.mark.parametrize(
        "markers, refs",
        [
            ([PointMarker("visa", 1736.0, 0.0)], []),
            ([PointMarker("visa", 0.0, 1662.78)], []),
            ([], [ReferenceBand("bitcoin", 0.0, 1662.78)]),
        ],
        ids=["marker-kwh-zero", "marker-tps-zero", "reference-band-lower-zero"],
    )
    def test_unplaceable_neither_ranged_nor_drawn(self, markers, refs):
        assert chart_geometry([band()], markers, refs) == chart_geometry([band()])
        assert render_chart([band()], markers, refs) == render_chart([band()])

    def test_placeable_beside_unplaceable_is_drawn(self):
        markers = [PointMarker("visa", 1736.0, 0.0033), PointMarker("near", 1.0, 0.0)]
        svg, geom = render_chart([band()], markers)
        assert svg.count("<circle ") == 1
        assert geom == chart_geometry([band()], markers[:1])


@st.composite
def affine_band(draw, network):
    """The band of a generated affine fit: through the origin, flat, or with a negative intercept.

    A negative intercept puts the first physical point mid-grid, at a drawn
    crossing throughput, so runs start anywhere.
    """
    max_tps = draw(st.floats(min_value=1.0, max_value=1e5))
    kind = draw(st.sampled_from(["origin", "flat", "negative-intercept"]))
    if kind == "origin":
        intercept, slope = 0.0, draw(st.floats(min_value=1.0, max_value=1e4))
    elif kind == "flat":
        intercept, slope = draw(st.floats(min_value=1.0, max_value=1e5)), 0.0
    else:
        intercept = draw(st.floats(min_value=-500.0, max_value=-1.0))
        crossing = draw(st.floats(min_value=0.01, max_value=max_tps))
        slope = (1.0 - intercept) / crossing
    lower_w = draw(st.floats(min_value=0.1, max_value=1e3))
    upper_w = lower_w * draw(st.floats(min_value=1.0, max_value=100.0))
    profile = NetworkProfile(network, ValidatorPowerBounds(network, lower_w, upper_w), max_tps)
    fit = RegressionFit(network, intercept, slope, 1.0, 2, kind == "origin")
    grid = default_grid(profile, draw(st.integers(min_value=2, max_value=5000)), 0.01)
    return consumption_band(fit, profile, grid)


def printed(x, y):
    return f"{x:.2f}", f"{y:.2f}"


def segment_distance(point, a, b):
    """Distance from ``point`` to the segment from ``a`` to ``b``."""
    (px, py), (ax, ay), (bx, by) = point, a, b
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length2)) if length2 else 0.0
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def subsequence_indices(drawn, full):
    """Index in ``full`` of each item of ``drawn``, matched in order, or None if one is missing."""
    indices, position = [], 0
    for item in drawn:
        while position < len(full) and full[position] != item:
            position += 1
        if position == len(full):
            return None
        indices.append(position)
        position += 1
    return indices


class TestCanvasResolution:
    """Each edge draws the first and last grid point of each whole pixel column."""

    @settings(deadline=None, max_examples=60)
    @given(bands=st.lists(
        st.sampled_from(["near", "tezos", "tron"]), min_size=1, max_size=3, unique=True
    ).flatmap(lambda networks: st.tuples(*map(affine_band, networks))))
    def test_edges_drawn_at_canvas_resolution(self, bands):
        assume(any(map(any, (b.physical for b in bands))))
        svg, geom = render_chart(bands)
        polygons = parse_polygons(svg)
        runs = [
            (b, [i for i, _ in group])
            for b in bands
            for flag, group in groupby(enumerate(b.physical), key=lambda item: item[1])
            if flag
        ]
        runs = [(b, run) for b, run in runs if len(run) >= 2]
        assert len(polygons) == len(runs)
        for (b, run), vertices in zip(runs, polygons):
            xs = [geom.x_px(b.tps[i]) for i in run]
            edges = [
                [(x, geom.y_px(column[i])) for x, i in zip(xs, run)]
                for column in (b.kwh_per_tx_lower, b.kwh_per_tx_upper)
            ]
            vertices = [printed(x, y) for x, y in vertices]
            half = len(vertices) // 2
            drawn_edges = vertices[:half], vertices[half:][::-1]
            kept = subsequence_indices(drawn_edges[0], [printed(*p) for p in edges[0]])
            # every drawn vertex is the printed pair of a physical grid point of this run
            assert kept is not None
            assert drawn_edges[1] == [printed(*edges[1][i]) for i in kept]
            # the run's first and last points are drawn
            assert (kept[0], kept[-1]) == (0, len(run) - 1)
            # exactly the first and the last point of each whole pixel column are drawn
            first, last = {}, {}
            for i, x in enumerate(xs):
                first.setdefault(math.floor(x), i)
                last[math.floor(x)] = i
            assert kept == sorted({*first.values(), *last.values()})
            # every grid point lies within a pixel of its edge (printing moves a vertex 0.005)
            for edge, drawn in zip(edges, drawn_edges):
                segments = [tuple(map(float, v)) for v in drawn]
                for k, (i, j) in enumerate(zip(kept, kept[1:])):
                    for point in edge[i:j + 1]:
                        assert segment_distance(point, segments[k], segments[k + 1]) <= 1.01
            # points a pixel or more apart are all drawn
            if all(right - left >= 1.0 for left, right in zip(xs, xs[1:])):
                assert kept == list(range(len(run)))
