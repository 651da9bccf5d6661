"""Log-log SVG rendering for consumption bands, markers and reference bands.

The chart is hand-rolled SVG rather than a plotting-library figure: shaded
polygons for bands (one per contiguous physical run), horizontal reference
bands, point markers, decade gridlines and a legend. The pixel mapping is
exposed through :class:`ChartGeometry` so callers can verify coordinates.
"""

from __future__ import annotations

import math
from itertools import compress, groupby
from math import floor, log10
from typing import Iterable, Iterator, Sequence

from .core import Record
from .estimator import ConsumptionBand

DEFAULT_WIDTH = 1200
DEFAULT_HEIGHT = 800

_MARGIN_LEFT = 80.0
_MARGIN_RIGHT = 40.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 70.0

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
    """Log-log mapping from data coordinates to SVG pixel coordinates."""

    width: int
    height: int
    x_log_min: float
    x_log_max: float
    y_log_min: float
    y_log_max: float

    @property
    def plot_left(self) -> float:
        return _MARGIN_LEFT

    @property
    def plot_right(self) -> float:
        return self.width - _MARGIN_RIGHT

    @property
    def plot_top(self) -> float:
        return _MARGIN_TOP

    @property
    def plot_bottom(self) -> float:
        return self.height - _MARGIN_BOTTOM

    def x_px(self, tps: float) -> float:
        return self.xs_px((tps,))[0]

    def y_px(self, kwh_per_tx: float) -> float:
        return self.ys_px((kwh_per_tx,))[0]

    def xs_px(self, tps: Iterable[float]) -> list[float]:
        """Pixel x of each throughput value, with the axis constants hoisted."""
        x_min, span = self.x_log_min, self.x_log_max - self.x_log_min
        left, extent = self.plot_left, self.plot_right - self.plot_left
        return [left + ((log10(t) - x_min) / span) * extent for t in tps]

    def ys_px(self, kwh_per_tx: Iterable[float]) -> list[float]:
        """Pixel y of each per-transaction energy value, with the axis constants hoisted."""
        y_max, span = self.y_log_max, self.y_log_max - self.y_log_min
        top, extent = self.plot_top, self.plot_bottom - self.plot_top
        return [top + ((y_max - log10(v)) / span) * extent for v in kwh_per_tx]


def chart_geometry(
    bands: Sequence[ConsumptionBand],
    markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> ChartGeometry:
    """Decade-rounded axis ranges covering every plottable value, on the fixed canvas."""
    xs = [m.tps for m in markers if m.tps > 0]
    ys = [m.kwh_per_tx for m in markers if m.kwh_per_tx > 0]
    ys += [v for r in reference_bands for v in (r.kwh_per_tx_lower, r.kwh_per_tx_upper) if v > 0]
    for band in bands:
        # Each band adds only the extremes of its physical, positive values.
        columns = ((xs, band.tps), (ys, band.kwh_per_tx_lower), (ys, band.kwh_per_tx_upper))
        for out, column in columns:
            out += _positive_extremes(column, band.physical)
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
    return ChartGeometry(DEFAULT_WIDTH, DEFAULT_HEIGHT, float(x_log_min), float(x_log_max),
                         float(y_log_min), float(y_log_max))


def _positive_extremes(column: Sequence[float], flags: Sequence[bool]) -> tuple[float, ...]:
    """The least and greatest positive value of ``column`` where ``flags`` is true, if any."""
    least = min(compress(column, flags), default=0.0)
    if least > 0:
        # Every flagged value is positive or NaN. min and max pass over a NaN
        # that is not the first value, and a NaN first makes ``least`` NaN.
        return least, max(compress(column, flags))
    values = [v for v in compress(column, flags) if v > 0]
    return (min(values), max(values)) if values else ()


def _physical_runs(physical: Sequence[bool]) -> list[tuple[int, int]]:
    """Half-open index ranges of a band's contiguous physical runs of two or more points."""
    runs = []
    start = 0
    for flag, group in groupby(physical):
        stop = start + len(list(group))
        if flag and stop - start >= 2:
            runs.append((start, stop))
        start = stop
    return runs


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` become entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_chart(
    bands: Sequence[ConsumptionBand],
    markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
    title: str = "",
) -> tuple[str, ChartGeometry]:
    """Render an SVG document on the fixed canvas; returns the markup and the geometry used.

    Band polygons walk the lower edge left to right, then the upper edge
    back, per contiguous physical run. Non-physical points are not drawn.
    Each edge is drawn at canvas resolution (see :func:`_column_ends`), so
    the markup's size is bounded by the canvas, not by the grid.
    """
    geom = chart_geometry(bands, markers, reference_bands)
    colors = _color_map(bands, markers, reference_bands)
    width, height = geom.width, geom.height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    parts.extend(_grid_lines(geom))
    for ref in reference_bands:
        top = geom.y_px(ref.kwh_per_tx_upper)
        bottom = geom.y_px(ref.kwh_per_tx_lower)
        parts.append(
            f'<rect x="{_fmt(geom.plot_left)}" y="{_fmt(top)}" '
            f'width="{_fmt(geom.plot_right - geom.plot_left)}" '
            f'height="{_fmt(bottom - top)}" fill="{colors[ref.label]}" '
            f'fill-opacity="0.25" stroke="{colors[ref.label]}"/>'
        )
    for band in bands:
        color = colors[band.network]
        for start, stop in _physical_runs(band.physical):
            run_xs = geom.xs_px(band.tps[start:stop])
            drawn = _column_ends(run_xs)
            # Each x is formatted once, with the comma that both of its vertices use.
            xs = [f"{run_xs[i]:.2f}," for i in drawn]
            lower = geom.ys_px([band.kwh_per_tx_lower[start + i] for i in drawn])
            upper = geom.ys_px([band.kwh_per_tx_upper[start + i] for i in drawn])
            vertices = [f"{x}{y:.2f}" for x, y in zip(xs, lower)]
            vertices += [f"{x}{y:.2f}" for x, y in zip(reversed(xs), reversed(upper))]
            parts.append(
                f'<polygon points="{" ".join(vertices)}" fill="{color}" fill-opacity="0.35" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    parts.extend(
        f'<circle cx="{_fmt(geom.x_px(marker.tps))}" cy="{_fmt(geom.y_px(marker.kwh_per_tx))}" '
        f'r="4" fill="{colors[marker.label]}" stroke="#333333"/>'
        for marker in markers
    )
    parts.extend(_frame_and_labels(geom, title))
    parts.extend(_legend(geom, colors))
    parts.append("</svg>")
    return "\n".join(parts) + "\n", geom


def _column_ends(xs: Sequence[float]) -> list[int]:
    """Indices of the first and the last of ``xs`` in each whole pixel column.

    These are the vertices an edge draws. A point left out lies in the same
    column as two drawn points, and a band edge is monotone between them, so
    it is within one pixel of the drawn edge. The first and last index are
    always kept, and where consecutive points are a pixel or more apart every
    index is kept.
    """
    columns = [floor(x) for x in xs]
    neighbours = [None, *columns, None]  # neighbours[i] and [i + 2] flank columns[i]
    return [
        i for i, column in enumerate(columns)
        if neighbours[i] != column or column != neighbours[i + 2]
    ]


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
    for exponent in range(int(geom.x_log_min), int(geom.x_log_max) + 1):
        x = geom.x_px(10.0 ** exponent)
        yield (
            f'<line x1="{_fmt(x)}" y1="{_fmt(geom.plot_top)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(geom.plot_bottom)}" stroke="#dddddd"/>'
        )
        yield (
            f'<text x="{_fmt(x)}" y="{_fmt(geom.plot_bottom + 20)}" '
            f'font-size="12" text-anchor="middle" fill="#333333">1e{exponent}</text>'
        )
    for exponent in range(int(geom.y_log_min), int(geom.y_log_max) + 1):
        y = geom.y_px(10.0 ** exponent)
        yield (
            f'<line x1="{_fmt(geom.plot_left)}" y1="{_fmt(y)}" x2="{_fmt(geom.plot_right)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd"/>'
        )
        yield (
            f'<text x="{_fmt(geom.plot_left - 8)}" y="{_fmt(y + 4)}" '
            f'font-size="12" text-anchor="end" fill="#333333">1e{exponent}</text>'
        )


def _frame_and_labels(geom: ChartGeometry, title: str) -> list[str]:
    mid_x = (geom.plot_left + geom.plot_right) / 2
    mid_y = (geom.plot_top + geom.plot_bottom) / 2
    parts = [
        f'<rect x="{_fmt(geom.plot_left)}" y="{_fmt(geom.plot_top)}" '
        f'width="{_fmt(geom.plot_right - geom.plot_left)}" '
        f'height="{_fmt(geom.plot_bottom - geom.plot_top)}" '
        f'fill="none" stroke="#333333"/>',
        f'<text x="{_fmt(mid_x)}" y="{_fmt(geom.plot_bottom + 45)}" font-size="14" '
        f'text-anchor="middle" fill="#111111">throughput (tx/s)</text>',
        f'<text x="20" y="{_fmt(mid_y)}" font-size="14" text-anchor="middle" '
        f'fill="#111111" transform="rotate(-90 20 {_fmt(mid_y)})">'
        f'energy per transaction (kWh/tx)</text>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(mid_x)}" y="24" font-size="16" text-anchor="middle" '
            f'fill="#111111">{_escape(title)}</text>'
        )
    return parts


def _legend(geom: ChartGeometry, colors: dict[str, str]) -> Iterator[str]:
    x = geom.plot_right - 170
    y = geom.plot_top + 10
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
