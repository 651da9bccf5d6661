"""SVG chart rendering: geometry, polygon coordinates, determinism."""

import bisect
import math
import re

from unittest import mock
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
from posenergy.estimator import ConsumptionBand, default_grid
from posenergy.regression import RegressionFit
from test_estimator import NEAR_PROFILE, CountingGrid


def band(network="polkadot", intercept=20.0, slope=0.0, grid=(0.1, 1.0, 10.0), watts=(3.6, 36.0)):
    """The band of a fit over ``grid``, up to its last point, between draws of ``watts``.

    By default ``20 / tps`` validators per tx/s at about 1e-6 and 1e-5 kWh
    per validator-second: about 2e-4 to 2e-6 kWh/tx on the lower edge, and
    ten times that on the upper one.
    """
    profile = NetworkProfile(network, ValidatorPowerBounds(network, *watts), grid[-1])
    return ConsumptionBand(RegressionFit(network, intercept, slope, 1.0, 2, False), profile, grid)


class TestChartGeometry:
    def test_decade_rounding(self):
        geom = chart_geometry([band()])
        # tps spans [0.1, 10] -> log10 in [-1, 1]; energy spans about [2e-6, 2e-3]
        assert geom.x_log_min == -1.0
        assert geom.x_log_max == 1.0
        assert geom.y_log_min == -6.0
        assert geom.y_log_max == -2.0

    def test_degenerate_range_widens_one_decade(self):
        # about 5e-5 kWh/tx on both edges at both points
        geom = chart_geometry([band(intercept=0.0, slope=50.0, grid=(2.0, 3.0), watts=(3.6, 3.6))])
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
        # a falling fit: 49.5 and 45 validators at 1 and 10 tx/s, none at 100
        geom = chart_geometry([band(intercept=50.0, slope=-0.5, grid=(1.0, 10.0, 100.0))])
        assert geom.x_log_max == 1.0

    @pytest.mark.parametrize(
        "bands, markers, refs",
        [
            pytest.param(
                [band(intercept=0.0, slope=1e3, grid=(1.0, 1.7e308))], [], [], id="tps-1.7e308"
            ),
            # no band value is finite below about 5.6e-309 tx/s, so a marker goes lower
            pytest.param([band()], [PointMarker("visa", 5e-324, 1e-3)], [], id="tps-5e-324"),
            pytest.param([band()], [], [ReferenceBand("bitcoin", 5e-324, 1.7e308)], id="kwh-ends"),
        ],
    )
    def test_decades_beyond_float_range_render(self, bands, markers, refs):
        # the outer gridlines sit at 1e309 or 1e-324, which no float holds
        svg = render_chart(bands, markers, refs)
        geom = chart_geometry(bands, markers, refs)
        assert {geom.x_log_min, geom.x_log_max, geom.y_log_min, geom.y_log_max} & {309.0, -324.0}
        assert "nan" not in svg and "inf" not in svg
        ElementTree.fromstring(svg)

    def test_nothing_to_plot(self):
        # half a validator at 1 tx/s: no physical point
        with pytest.raises(ValueError, match="nothing to plot"):
            chart_geometry([band(intercept=0.0, slope=0.5, grid=(1.0,))])

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
    positive; a band counts each positive value of its drawn physical runs.
    """
    markers = [m for m in markers if m.tps > 0 and m.kwh_per_tx > 0]
    reference_bands = [
        r for r in reference_bands if r.kwh_per_tx_lower > 0 and r.kwh_per_tx_upper > 0
    ]
    xs = [m.tps for m in markers]
    ys = [m.kwh_per_tx for m in markers]
    ys += [v for r in reference_bands for v in (r.kwh_per_tx_lower, r.kwh_per_tx_upper)]
    for b in bands:
        start, stop = b.physical_run
        if stop - start >= 2:  # one point makes no polygon
            run = b.grid[start:stop]
            lower, upper = b.kwh_per_tx_at(run)
            xs += run
            ys += lower + upper
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


# 0.0 is drawn often: markers and reference bands at 0.0 must be skipped.
VALUES = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9))


@st.composite
def generated_band(draw):
    """The band of a generated fit over up to 12 throughputs, up to the largest float.

    The fit rises, falls, is flat or is through the origin, so the physical
    run is a prefix, a suffix, the whole grid or nothing.
    """
    rates = st.one_of(st.floats(min_value=1e-9, max_value=1e9),
                      st.floats(min_value=1.0, allow_infinity=False))
    tps = sorted(draw(st.sets(rates, min_size=1, max_size=12)))
    coefficient = st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3))
    lower_w = draw(st.floats(min_value=1e-3, max_value=1e3))
    watts = (lower_w, lower_w * draw(st.floats(min_value=1.0, max_value=1e3)))
    network = draw(st.sampled_from(["near", "tezos", "tron"]))
    return band(network, draw(coefficient), draw(coefficient), tuple(tps), watts)


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
            # every band that can be built renders, with finite coordinates only
            svg = render_chart(bands, markers, refs)
            assert "nan" not in svg and "inf" not in svg
            ElementTree.fromstring(svg)


def parse_polygons(svg):
    out = []
    for match in re.finditer(r'<polygon points="([^"]+)"', svg):
        out.append(
            [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
        )
    return out


class TestRenderChart:
    def test_returns_wellformed_svg(self):
        svg = render_chart([band()])
        assert type(svg) is str
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'width="1200" height="800"' in svg
        assert "throughput (tx/s)" in svg
        assert "energy per transaction (kWh/tx)" in svg

    @pytest.mark.parametrize(
        "kwargs, text",
        [
            ({"markers": [PointMarker("a<b", 1.0, 1e-5)]}, "a<b"),
            ({"reference_bands": [ReferenceBand("x&y", 1e-5, 1e-4)]}, "x&y"),
        ],
        ids=["marker", "reference-band"],
    )
    def test_text_is_escaped(self, kwargs, text):
        svg = render_chart([band()], **kwargs)
        root = ElementTree.fromstring(svg)
        assert text in [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]

    def test_polygon_vertices_match_geometry(self):
        cases = [
            # 20 / tps validators per tx/s: straight in log-log, drawn by its run's two ends
            (band(), (0.1, 10.0)),
            # 20 + 3 * tps validators: curved, drawn at the run's 3 points (a sparse run)
            (band(slope=3.0), (0.1, 1.0, 10.0)),
        ]
        for b, rates in cases:
            svg, geom = render_chart([b]), chart_geometry([b])
            polygons = parse_polygons(svg)
            assert len(polygons) == 1
            vertices = polygons[0]
            lower, upper = b.kwh_per_tx_at(rates)
            expected = [(geom.x_px(t), geom.y_px(v)) for t, v in zip(rates, lower)]
            expected += [(geom.x_px(t), geom.y_px(v)) for t, v in zip(rates[::-1], upper[::-1])]
            assert len(vertices) == len(expected)
            for (got_x, got_y), (want_x, want_y) in zip(vertices, expected):
                assert (f"{got_x:.2f}", f"{got_y:.2f}") == (f"{want_x:.2f}", f"{want_y:.2f}")

    def test_single_point_run_not_drawn(self):
        # a falling fit: 4.5 validators at 1 tx/s, none at 10
        lone = band(intercept=5.0, slope=-0.5, grid=(1.0, 10.0))
        # a lone physical point is neither drawn nor ranged, so alone it leaves nothing to plot
        with pytest.raises(ValueError, match="nothing to plot"):
            render_chart([lone])
        marker = PointMarker("visa", 1736.0, 0.0033)
        assert parse_polygons(render_chart([lone], [marker])) == []
        assert chart_geometry([lone], [marker]) == chart_geometry([], [marker])

    @pytest.mark.parametrize(
        "intercept, slope", [(0.0, 24.96), (158.0, 0.0), (-50.0, 2.0)],
        ids=["intercept-0", "slope-0", "varying"],
    )
    def test_reads_only_the_run_ends(self, intercept, slope):
        grid = CountingGrid(0.01, 1000.0, 20000)
        fit = RegressionFit("near", intercept, slope, 1.0, 2, False)
        b = ConsumptionBand(fit, NEAR_PROFILE, grid)
        built = grid.reads
        render_chart([b])
        # two ends for chart_geometry, the same two for the polygon
        assert grid.reads - built == 4

    def test_run_within_one_pixel_column_draws_its_ends(self):
        # a curved edge whose two ends both map to x = 80.0: no column to sample, yet two ends
        grid = (1e300, math.nextafter(1e300, math.inf))
        b = band(intercept=5.0, slope=1e-290, grid=grid)
        svg, geom = render_chart([b]), chart_geometry([b])
        assert geom.x_px(grid[0]) == geom.x_px(grid[1]) == PLOT_LEFT
        lower, upper = b.kwh_per_tx_at(grid)
        expected = [(geom.x_px(t), geom.y_px(v)) for t, v in zip(grid, lower)]
        expected += [(geom.x_px(t), geom.y_px(v)) for t, v in zip(grid[::-1], upper[::-1])]
        assert parse_polygons(svg) == [[tuple(map(float, printed(*p))) for p in expected]]

    def test_marker_circle_position(self):
        marker = PointMarker("visa", 1736.0, 0.00327773)
        svg, geom = render_chart([band()], [marker]), chart_geometry([band()], [marker])
        match = re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)
        assert match
        assert abs(float(match.group(1)) - geom.x_px(marker.tps)) <= 0.5
        assert abs(float(match.group(2)) - geom.y_px(marker.kwh_per_tx)) <= 0.5

    def test_reference_band_spans_plot_width(self):
        ref = ReferenceBand("bitcoin", 624.41, 1662.78)
        svg = render_chart([band()], reference_bands=[ref])
        geom = chart_geometry([band()], reference_bands=[ref])
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
        svg = render_chart(
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
        first = render_chart(*args)
        second = render_chart(*args)
        assert first == second

    def test_distinct_band_colors(self):
        svg = render_chart([band("polkadot"), band("tezos")])
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
        assert render_chart([band()], markers).count("<circle ") == 1
        assert chart_geometry([band()], markers) == chart_geometry([band()], markers[:1])


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
    return ConsumptionBand(fit, profile, grid)


def printed(x, y):
    return f"{x:.2f}", f"{y:.2f}"


def segment_distance(point, a, b):
    """Distance from ``point`` to the segment from ``a`` to ``b``."""
    (px, py), (ax, ay), (bx, by) = point, a, b
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length2)) if length2 else 0.0
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


class TestCanvasResolution:
    """An edge is drawn from its fit and its run's two ends, at canvas resolution.

    A fit with intercept 0 (flat) or slope 0 (``1/tps``) is straight in
    log-log and draws its run's two ends. Any other edge draws
    ``max(2, min(run points, ceil(right - left) + 1))`` samples from end to
    end: one per pixel column, or one per run point where the run is sparser.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        bands=st.lists(
            st.sampled_from(["near", "tezos", "tron"]), min_size=1, max_size=3, unique=True
        ).flatmap(lambda networks: st.tuples(*map(affine_band, networks))),
        between=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
    )
    def test_edges_drawn_at_canvas_resolution(self, bands, between):
        runs = [(b, range(*b.physical_run)) for b in bands]
        runs = [(b, run) for b, run in runs if len(run) >= 2]
        assume(runs)  # else nothing to plot
        calls = []
        read = ConsumptionBand.kwh_per_tx_at

        def recording(band, rates):
            calls.append(tuple(rates))
            return read(band, calls[-1])

        with mock.patch.object(ConsumptionBand, "kwh_per_tx_at", recording):
            svg = render_chart(bands)
        geom = chart_geometry(bands)
        polygons = parse_polygons(svg)
        assert len(polygons) == len(runs)
        # the polygons' samples: the last reads, after chart_geometry's reads of the ends
        for (b, run), samples, vertices in zip(runs, calls[-len(runs):], polygons):
            first, last = b.grid[run.start], b.grid[run.stop - 1]
            left, right = geom.x_px(first), geom.x_px(last)
            straight = b.intercept == 0 or b.slope == 0
            n = 2 if straight else max(2, min(len(run), math.ceil(right - left) + 1))
            assert len(samples) == n and (samples[0], samples[-1]) == (first, last)
            assert all(first <= t <= last for t in samples)
            # each edge's vertices are its printed samples; the first and last are the run's ends
            columns = b.kwh_per_tx_at(samples)
            half = len(vertices) // 2
            drawn_edges = vertices[:half], vertices[half:][::-1]
            for column, drawn in zip(columns, drawn_edges):
                assert [printed(*v) for v in drawn] == [
                    printed(geom.x_px(t), geom.y_px(value)) for t, value in zip(samples, column)
                ]
            # every run point, and throughputs between the ends, lie near the drawn edge
            low, high = math.log10(first), math.log10(last)
            rates = [*b.grid[run.start:run.stop],
                     *(min(max(10.0 ** (low + f * (high - low)), first), last) for f in between)]
            bound = 0.0 if straight else (right - left) / (n - 1)  # a line holds every point
            for column, drawn in zip(b.kwh_per_tx_at(rates), drawn_edges):
                xs = [x for x, _ in drawn]
                for t, value in zip(rates, column):
                    point = geom.x_px(t), geom.y_px(value)
                    k = bisect.bisect(xs, point[0])
                    near = range(max(1, k - 1), min(len(drawn), k + 2))
                    distance = min(segment_distance(point, drawn[j - 1], drawn[j]) for j in near)
                    assert distance <= bound + 0.01  # printing moves a vertex 0.005 each way
