"""Log-log SVG rendering for consumption bands, markers and reference bands.

The chart is hand-rolled SVG rather than a plotting-library figure: shaded
polygons for bands (one per physical run), horizontal reference
bands, point markers, decade gridlines and a legend, on a fixed canvas and
plot box. :class:`ChartGeometry` holds the axis ranges and the pixel mapping,
so callers can verify coordinates. A marker is placed only if its throughput
and kWh/tx are both positive, a reference band only if both of its edges are.
The legend labels are XML-escaped.
"""

from __future__ import annotations

import math
from math import ceil, log10
from typing import Iterable, Iterator, Sequence

from .core import Record
from .estimator import ConsumptionBand, LogGrid

DEFAULT_WIDTH = 1200
DEFAULT_HEIGHT = 800

# The plot box: the rectangle of the canvas where data is drawn.
PLOT_LEFT = 80.0
PLOT_RIGHT = DEFAULT_WIDTH - 40.0
PLOT_TOP = 40.0
PLOT_BOTTOM = DEFAULT_HEIGHT - 70.0

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31", "#843c39", "#7b4173", "#3182bd",
)


class PointMarker(Record):
    """A single labelled point, e.g. a latest observation or the Visa figure."""

    label: str
    tps: float
    kwh_per_tx: float


class ReferenceBand(Record):
    """A horizontal band spanning the whole throughput axis (Bitcoin bounds)."""

    label: str
    kwh_per_tx_lower: float
    kwh_per_tx_upper: float


class ChartGeometry(Record):
    """The axis ranges, in decades, and their log-log mapping onto the plot box."""

    x_log_min: float
    x_log_max: float
    y_log_min: float
    y_log_max: float

    def x_px(self, tps: float) -> float:
        return self.xs_px((tps,))[0]

    def y_px(self, kwh_per_tx: float) -> float:
        return self.ys_px((kwh_per_tx,))[0]

    def xs_px(self, tps: Iterable[float]) -> list[float]:
        """Pixel x of each throughput value, with the axis constants hoisted."""
        x_min, span = self.x_log_min, self.x_log_max - self.x_log_min
        left, extent = PLOT_LEFT, PLOT_RIGHT - PLOT_LEFT
        return [left + ((log10(t) - x_min) / span) * extent for t in tps]

    def ys_px(self, kwh_per_tx: Iterable[float]) -> list[float]:
        """Pixel y of each per-transaction energy value, with the axis constants hoisted."""
        y_max, span = self.y_log_max, self.y_log_max - self.y_log_min
        top, extent = PLOT_TOP, PLOT_BOTTOM - PLOT_TOP
        return [top + ((y_max - log10(v)) / span) * extent for v in kwh_per_tx]


def chart_geometry(
    bands: Sequence[ConsumptionBand],
    markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> ChartGeometry:
    """Decade-rounded axis ranges covering every placeable value and drawn band point.

    A band is drawn, and so ranged, only where its physical run has two or
    more points, since one point makes no polygon. Each edge is monotone
    over the run, so the run's extremes are its values at its two ends.
    """
    markers, reference_bands = _placeable(markers, reference_bands)
    xs = [m.tps for m in markers]
    ys = [m.kwh_per_tx for m in markers]
    ys += [v for r in reference_bands for v in (r.kwh_per_tx_lower, r.kwh_per_tx_upper)]
    for band in bands:
        start, stop = band.physical_run
        if stop - start >= 2:
            ends = (band.grid[start], band.grid[stop - 1])
            lower, upper = band.kwh_per_tx_at(ends)
            xs += ends
            ys += (min(lower), max(upper))
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


def _placeable(
    markers: Sequence[PointMarker], reference_bands: Sequence[ReferenceBand]
) -> tuple[list[PointMarker], list[ReferenceBand]]:
    """The markers and reference bands a log-log chart can place: all coordinates positive."""
    return (
        [m for m in markers if m.tps > 0 and m.kwh_per_tx > 0],
        [r for r in reference_bands if r.kwh_per_tx_lower > 0 and r.kwh_per_tx_upper > 0],
    )


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` become entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# The markup that does not depend on the data: the canvas, and the plot box's
# frame with the axis labels.
_CANVAS = (
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{DEFAULT_WIDTH}" height="{DEFAULT_HEIGHT}" '
    f'viewBox="0 0 {DEFAULT_WIDTH} {DEFAULT_HEIGHT}">\n'
    f'<rect x="0" y="0" width="{DEFAULT_WIDTH}" height="{DEFAULT_HEIGHT}" fill="#ffffff"/>'
)
_MID_X, _MID_Y = (PLOT_LEFT + PLOT_RIGHT) / 2, (PLOT_TOP + PLOT_BOTTOM) / 2
_FRAME_AND_LABELS = (
    f'<rect x="{_fmt(PLOT_LEFT)}" y="{_fmt(PLOT_TOP)}" '
    f'width="{_fmt(PLOT_RIGHT - PLOT_LEFT)}" height="{_fmt(PLOT_BOTTOM - PLOT_TOP)}" '
    f'fill="none" stroke="#333333"/>\n'
    f'<text x="{_fmt(_MID_X)}" y="{_fmt(PLOT_BOTTOM + 45)}" font-size="14" '
    f'text-anchor="middle" fill="#111111">throughput (tx/s)</text>\n'
    f'<text x="20" y="{_fmt(_MID_Y)}" font-size="14" text-anchor="middle" '
    f'fill="#111111" transform="rotate(-90 20 {_fmt(_MID_Y)})">'
    f'energy per transaction (kWh/tx)</text>'
)


def render_chart(
    bands: Sequence[ConsumptionBand],
    markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> str:
    """Render an SVG document on the fixed canvas, ranged by :func:`chart_geometry`.

    Band polygons walk the lower edge left to right, then the upper edge
    back, over each band's physical run. Non-physical points are not drawn,
    nor is a run of one point, nor a marker or reference band that a log
    axis cannot place (see :func:`_placeable`). An edge reads only its
    run's two ends and the band's fit. A fit with intercept 0 (flat) or
    slope 0 (``1/tps``) is straight in log-log, so its edges are drawn by
    those two ends, 4 vertices. Any other edge is drawn at ``n = max(2,
    min(run points, ceil(right - left) + 1))`` log-spaced throughputs from
    end to end, where ``left`` and ``right`` are the ends' pixel x: one
    sample per pixel column, or per run point where the run is sparser. An
    edge is monotone over its run, so between two samples it stays in
    their bounding box, within ``(right - left) / (n - 1)`` px of the
    drawn line.
    """
    markers, reference_bands = _placeable(markers, reference_bands)
    geom = chart_geometry(bands, markers, reference_bands)
    colors = _color_map(bands, markers, reference_bands)
    parts = [_CANVAS, *_grid_lines(geom)]
    for ref in reference_bands:
        top = geom.y_px(ref.kwh_per_tx_upper)
        bottom = geom.y_px(ref.kwh_per_tx_lower)
        parts.append(
            f'<rect x="{_fmt(PLOT_LEFT)}" y="{_fmt(top)}" '
            f'width="{_fmt(PLOT_RIGHT - PLOT_LEFT)}" '
            f'height="{_fmt(bottom - top)}" fill="{colors[ref.label]}" '
            f'fill-opacity="0.25" stroke="{colors[ref.label]}"/>'
        )
    for band in bands:
        color = colors[band.network]
        start, stop = band.physical_run
        if stop - start < 2:
            continue
        rates = (band.grid[start], band.grid[stop - 1])
        if band.intercept != 0 and band.slope != 0:  # curved in log-log: sample each column
            left, right = geom.xs_px(rates)
            rates = tuple(LogGrid(*rates, max(2, min(stop - start, ceil(right - left) + 1))))
        lower, upper = band.kwh_per_tx_at(rates)
        # Each x is formatted once, with the comma that both of its vertices use.
        xs = [f"{x:.2f}," for x in geom.xs_px(rates)]
        vertices = [f"{x}{y:.2f}" for x, y in zip(xs, geom.ys_px(lower))]
        vertices += [f"{x}{y:.2f}" for x, y in zip(reversed(xs), reversed(geom.ys_px(upper)))]
        parts.append(
            f'<polygon points="{" ".join(vertices)}" fill="{color}" fill-opacity="0.35" '
            f'stroke="{color}" stroke-width="1"/>'
        )
    parts.extend(
        f'<circle cx="{_fmt(geom.x_px(marker.tps))}" cy="{_fmt(geom.y_px(marker.kwh_per_tx))}" '
        f'r="4" fill="{colors[marker.label]}" stroke="#333333"/>'
        for marker in markers
    )
    parts.append(_FRAME_AND_LABELS)
    parts.extend(_legend(colors))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color_map(
    bands: Sequence[ConsumptionBand],
    markers: Sequence[PointMarker],
    reference_bands: Sequence[ReferenceBand],
) -> dict[str, str]:
    labels = sorted({b.network for b in bands})
    labels += sorted({m.label for m in markers} - set(labels))
    labels += sorted({r.label for r in reference_bands} - set(labels))
    return {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}


def _grid_lines(geom: ChartGeometry) -> Iterator[str]:
    # Placed from the decade, not 10.0 ** decade: that overflows past 1e308, is 0.0 below 1e-323.
    x_span, y_span = geom.x_log_max - geom.x_log_min, geom.y_log_max - geom.y_log_min
    for exponent in range(int(geom.x_log_min), int(geom.x_log_max) + 1):
        x = PLOT_LEFT + ((exponent - geom.x_log_min) / x_span) * (PLOT_RIGHT - PLOT_LEFT)
        yield (
            f'<line x1="{_fmt(x)}" y1="{_fmt(PLOT_TOP)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(PLOT_BOTTOM)}" stroke="#dddddd"/>'
        )
        yield (
            f'<text x="{_fmt(x)}" y="{_fmt(PLOT_BOTTOM + 20)}" '
            f'font-size="12" text-anchor="middle" fill="#333333">1e{exponent}</text>'
        )
    for exponent in range(int(geom.y_log_min), int(geom.y_log_max) + 1):
        y = PLOT_TOP + ((geom.y_log_max - exponent) / y_span) * (PLOT_BOTTOM - PLOT_TOP)
        yield (
            f'<line x1="{_fmt(PLOT_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(PLOT_RIGHT)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd"/>'
        )
        yield (
            f'<text x="{_fmt(PLOT_LEFT - 8)}" y="{_fmt(y + 4)}" '
            f'font-size="12" text-anchor="end" fill="#333333">1e{exponent}</text>'
        )


def _legend(colors: dict[str, str]) -> Iterator[str]:
    x = PLOT_RIGHT - 170
    y = PLOT_TOP + 10
    for label in colors:
        yield (
            f'<rect x="{_fmt(x)}" y="{_fmt(y - 9)}" width="12" height="12" '
            f'fill="{colors[label]}" fill-opacity="0.7"/>'
        )
        yield (
            f'<text x="{_fmt(x + 18)}" y="{_fmt(y + 2)}" font-size="12" '
            f'fill="#111111">{_escape(label)}</text>'
        )
        y += 18
