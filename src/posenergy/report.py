"""Assembly of pipeline outputs: fit summaries, comparison tables, chart series.

Everything here is deterministic: rows are sorted by network name, floats are
rendered with fixed rules (kW with two decimals, kWh/tx with six significant
digits, raw series with ten significant digits), and no timestamps or
environment details leak into the output.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .core import NetworkObservation, NetworkProfile, ValidatorPowerBounds
from .estimator import (
    ConsumptionBand,
    ContemporaryEstimate,
    DEFAULT_GRID_POINTS,
    DEFAULT_MIN_TPS,
    Erratum,
    ReportedEstimate,
    contemporary_estimate,
    default_grid,
)
from .regression import RegressionFit, fit_affine
from .solana import (
    VoteRatioRecord,
    adjusted_max_tps,
    average_tps,
    mean_nonvote_ratio,
    nonvote_ratio,
    nonvote_tps,
)

if TYPE_CHECKING:  # chart and baselines load only in the commands that draw or read them
    from .baselines import BaselineBand
    from .chart import PointMarker, ReferenceBand

Row = tuple[str, ...]


def format_kw(value: float) -> str:
    return f"{value:.2f}"


def format_kwh_per_tx(value: float) -> str:
    return format(value, ".6g")


def format_series(value: float) -> str:
    return format(value, ".10g")


def erratum_note(erratum: Erratum) -> str:
    """The one wording of an erratum, as printed after ``note: ``.

    A published kWh/tx figure is printed as a plain float (``2927.0``), a
    published global power at kW precision.
    """
    network, reported, computed = erratum.network, erratum.reported, erratum.computed
    if erratum.quantity == "global_kw":
        return (
            f"published global power for {network} ({format_kw(reported)} kW) is not "
            f"reproducible from its own validator count and power bounds "
            f"(computed {format_kw(computed)} kW)"
        )
    return (
        f"published energy per transaction for {network} ({reported} kWh/tx) does not match "
        f"the midpoint of the computed bounds ({format_kwh_per_tx(computed)} kWh/tx)"
    )


def input_mismatch_note(row: ReportedEstimate, estimate: ContemporaryEstimate) -> str:
    """The wording for a published row stated at other inputs than the observation it is checked at.

    Only the inputs the row states are named.
    """
    stated = [f"{row.validators} validators"] if row.validators is not None else []
    stated += [f"{format_series(row.tps)} tps"] if row.tps is not None else []
    return (
        f"published figures for {row.name} are stated at {' and '.join(stated)}, but are "
        f"checked at its observation's {estimate.validators} validators and "
        f"{format_series(estimate.tps)} tps"
    )


def unmatched_note(name: str) -> str:
    """The wording for a published row whose name is no observed network or baseline.

    Such a row is compared with nothing, so a misspelt name would otherwise
    hide its erratum.
    """
    return f"published figures for {name} match no observed network or baseline and are not checked"


def select_networks(
    observations: Iterable[NetworkObservation], networks: Sequence[str] | None = None
) -> dict[str, list[NetworkObservation]]:
    """Observations grouped by network, keyed in name order.

    ``networks`` restricts the result to those names, each once; when it is
    None or empty every observed network is kept. Each group keeps the
    input order of its rows.

    Raises:
        ValueError: a requested network has no observation.
    """
    groups: dict[str, list[NetworkObservation]] = {}
    for obs in observations:
        groups.setdefault(obs.network, []).append(obs)
    wanted = sorted(set(networks)) if networks else sorted(groups)
    for network in wanted:
        if network not in groups:
            raise ValueError(f"no observations for network {network!r}")
    return {network: groups[network] for network in wanted}


# The last call of fit_networks: its observations, its origin flag and the
# fits it returned. No observations fit no network, so the first entry holds.
_last_fits: tuple[tuple[NetworkObservation, ...], bool, tuple[RegressionFit, ...]] = ((), True, ())


def fit_networks(
    observations: Iterable[NetworkObservation], include_origin: bool = True
) -> list[RegressionFit]:
    """Fit every observed network, sorted by name.

    The observations of the last call, its origin flag and its fits are
    kept for the life of the process. A call with equal observations, in
    the same order, and the same flag returns a new list of those fits
    without fitting again, so a refresh that fits a window and then charts
    it fits each network once. A call that raises keeps nothing.
    """
    global _last_fits
    window = tuple(observations)  # the caller's own tuple, if it passes one
    last_window, last_origin, last = _last_fits
    if window == last_window and include_origin == last_origin:
        return list(last)
    fits = [
        fit_affine(group, include_origin=include_origin)
        for group in select_networks(window).values()
    ]
    _last_fits = (window, include_origin, tuple(fits))
    return fits


def fit_rows(fits: Sequence[RegressionFit]) -> tuple[Row, list[Row]]:
    header = ("network", "intercept", "slope", "r2", "n_points", "origin_included")
    rows = [
        (
            f.network,
            format_series(f.intercept),
            format_series(f.slope),
            format_series(f.r2),
            str(f.n_points),
            str(f.origin_included).lower(),
        )
        for f in fits
    ]
    return header, rows


def baseline_rows(bands: Sequence[BaselineBand]) -> tuple[Row, list[Row]]:
    """Annual, per-second and per-transaction figures of each baseline."""
    header = (
        "name",
        "year",
        "tps",
        "annual_kwh_lower",
        "annual_kwh_upper",
        "kwh_per_second_lower",
        "kwh_per_second_upper",
        "kwh_per_tx_lower",
        "kwh_per_tx_mid",
        "kwh_per_tx_upper",
    )
    rows = [
        (
            band.name,
            str(band.period_year),
            format_series(band.tps),
            format_series(band.annual_kwh_lower),
            format_series(band.annual_kwh_upper),
            format_series(band.kwh_per_second_lower),
            format_series(band.kwh_per_second_upper),
            format_kwh_per_tx(band.kwh_per_tx_lower),
            format_kwh_per_tx(band.kwh_per_tx_mid),
            format_kwh_per_tx(band.kwh_per_tx_upper),
        )
        for band in bands
    ]
    return header, rows


def vote_rows(
    records: Iterable[VoteRatioRecord], postulated_max: float
) -> tuple[Row, list[Row], str]:
    """Per-day vote/nonvote figures, oldest first, and a two-line summary.

    The summary holds the mean nonvote share and the postulated maximum
    scaled by it, as ``#`` comment lines. Raises ValueError without records.
    """
    ordered = sorted(records, key=lambda r: r.date)
    if not ordered:
        raise ValueError("no vote-ratio records in the snapshot (need nonvote/total columns)")
    header = (
        "date",
        "reported_tps",
        "nonvote_per_day",
        "total_per_day",
        "average_tps",
        "nonvote_ratio",
        "nonvote_tps",
    )
    rows = [
        (
            r.date.isoformat(),
            format_series(r.reported_tps),
            str(r.nonvote_tx_per_day),
            str(r.total_tx_per_day),
            format_series(average_tps(r)),
            format_series(nonvote_ratio(r)),
            format_series(nonvote_tps(r)),
        )
        for r in ordered
    ]
    summary = (
        f"# mean_nonvote_ratio,{format_series(mean_nonvote_ratio(ordered))}\n"
        f"# adjusted_max_tps,{format_series(adjusted_max_tps(postulated_max, ordered))}\n"
    )
    return header, rows, summary


def _latest_observations(
    observations: Iterable[NetworkObservation], bounds: Mapping[str, ValidatorPowerBounds]
) -> Iterator[tuple[NetworkObservation, ValidatorPowerBounds]]:
    """Each observed network's latest observation and its power bounds, in name order."""
    for network, group in select_networks(observations).items():
        if network not in bounds:
            raise ValueError(f"no power bounds for network {network!r}")
        yield max(group, key=lambda o: o.date), bounds[network]


def comparison_estimates(
    observations: Iterable[NetworkObservation], bounds: Mapping[str, ValidatorPowerBounds]
) -> list[ContemporaryEstimate]:
    """Contemporary estimate at each network's latest observation."""
    pairs = _latest_observations(observations, bounds)
    return [contemporary_estimate(obs, b) for obs, b in pairs]


TABLE_HEADER = (
    "name",
    "validators",
    "tps",
    "kw_lower",
    "kw_mid",
    "kw_upper",
    "kwh_per_tx_lower",
    "kwh_per_tx_mid",
    "kwh_per_tx_upper",
)


def comparison_rows(
    estimates: Sequence[ContemporaryEstimate],
    baselines: Sequence[BaselineBand] = (),
) -> list[Row]:
    """Network rows followed by baseline rows, each priced lower/mid/upper.

    The cells follow :data:`TABLE_HEADER`. Baseline rows leave ``validators``
    empty and take the mean of their lower and upper power as ``kw_mid``.
    """
    rows = [
        (
            e.network,
            str(e.validators),
            format_series(e.tps),
            *map(format_kw, (e.global_kw_lower, e.global_kw_mid, e.global_kw_upper)),
            *map(format_kwh_per_tx, (e.kwh_per_tx_lower, e.kwh_per_tx_mid, e.kwh_per_tx_upper)),
        )
        for e in estimates
    ]
    rows += [
        (
            b.name,
            "",
            format_series(b.tps),
            *map(format_kw, (b.kw_lower, b.kw_mid, b.kw_upper)),
            *map(format_kwh_per_tx, (b.kwh_per_tx_lower, b.kwh_per_tx_mid, b.kwh_per_tx_upper)),
        )
        for b in baselines
    ]
    return rows


def render_grid_text(header: Row, rows: Sequence[Row]) -> str:
    grid = [header] + list(rows)
    widths = [max(len(line[i]) for line in grid) for i in range(len(header))]
    out = []
    for index, line in enumerate(grid):
        out.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(line)
            ).rstrip()
        )
        if index == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def _csv_lines(rows: Iterable[Row]) -> str:
    return "".join([",".join(r) + "\n" for r in rows])


def render_grid_csv(header: Row, rows: Sequence[Row]) -> str:
    return _csv_lines(chain([header], rows))


def chart_bands(
    observations: Iterable[NetworkObservation],
    profiles: Mapping[str, NetworkProfile],
    include_origin: bool = True,
    min_tps: float = DEFAULT_MIN_TPS,
    n_points: int = DEFAULT_GRID_POINTS,
) -> list[ConsumptionBand]:
    """Each network's band from its :func:`fit_networks` fit, over the default grid."""
    fits = fit_networks(observations, include_origin)
    if not fits:
        raise ValueError("no observations to chart")
    bands = []
    for fit in fits:
        if fit.network not in profiles:
            raise ValueError(f"no throughput profile for network {fit.network!r}")
        profile = profiles[fit.network]
        bands.append(ConsumptionBand(fit, profile, default_grid(profile, n_points, min_tps)))
    return bands


def observation_markers(
    observations: Iterable[NetworkObservation], bounds: Mapping[str, ValidatorPowerBounds]
) -> list[PointMarker]:
    """Two markers per network: its contemporary estimate's lower and upper kWh/tx.

    A network whose latest observation has zero throughput has no markers.
    """
    from .chart import PointMarker

    pairs = _latest_observations(observations, bounds)
    estimates = [contemporary_estimate(obs, b) for obs, b in pairs if obs.tps > 0]
    return [PointMarker(e.network, e.tps, kwh)
            for e in estimates for kwh in (e.kwh_per_tx_lower, e.kwh_per_tx_upper)]


def baseline_chart_elements(
    baselines: Sequence[BaselineBand],
) -> tuple[list[PointMarker], list[ReferenceBand]]:
    """A baseline with equal bounds becomes a marker, one with distinct bounds a band."""
    from .chart import PointMarker, ReferenceBand

    markers = []
    refs = []
    for band in baselines:
        if band.kwh_per_tx_lower == band.kwh_per_tx_upper:
            markers.append(PointMarker(band.name, band.tps, band.kwh_per_tx_lower))
        else:
            refs.append(ReferenceBand(band.name, band.kwh_per_tx_lower, band.kwh_per_tx_upper))
    return markers, refs


_CHART_HEADER = ("network", "tps", "kwh_per_tx_lower", "kwh_per_tx_upper", "physical")


def _chart_anchor_lines(
    bands: Sequence[ConsumptionBand],
    baseline_markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> list[str]:
    """The baseline lines that follow the bands in a chart CSV.

    Reference bands contribute two lines, pinned to the extremes of the
    plotted grids; markers one line each.
    """
    if reference_bands and not bands:
        raise ValueError("reference bands need a band to span")
    grid_extremes = [t for band in bands for t in (band.grid[0], band.grid[-1])]
    anchors = [
        (ref.label, (tps, ref.kwh_per_tx_lower, ref.kwh_per_tx_upper))
        for ref in sorted(reference_bands, key=lambda r: r.label)
        for tps in (min(grid_extremes), max(grid_extremes))
    ]
    anchors += [
        (marker.label, (marker.tps, marker.kwh_per_tx, marker.kwh_per_tx))
        for marker in sorted(baseline_markers, key=lambda m: (m.label, m.tps))
    ]
    return [
        f"{label},{format_series(tps)},{format_series(lower)},{format_series(upper)},true\n"
        for label, (tps, lower, upper) in anchors
    ]


_CHART_BLOCK_ROWS = 2048


def _band_blocks(band: ConsumptionBand) -> Iterator[str]:
    """The band's chart CSV lines in blocks of at most ``_CHART_BLOCK_ROWS`` rows.

    Each block is one bytes ``%`` over the template ``off * k1 + on * k2 +
    off * k3``, where ``k2`` rows lie in the physical run. The points off the
    run print ``0,0,false``. In the run, a fit with intercept 0 gives every
    point the slope times each hardware factor, so those two values are
    formatted once into ``on``; any other fit's tps and values are
    interleaved row by row. The name is text in each template, with every
    ``%`` doubled, and ``%.10g`` formats as format_series does. A block is
    held only while it is formatted, so the memory of a band's CSV does not
    grow with its grid.
    """
    # surrogatepass: any str name comes back from the UTF-8 round trip unchanged
    name, grid = band.network.replace("%", "%%").encode("utf-8", "surrogatepass"), band.grid
    start, stop = band.physical_run
    off = name + b",%.10g,0,0,false\n"
    flat = band.intercept == 0 and start < stop
    if flat:
        lower, upper = band.kwh_per_tx_at(grid[start:start + 1])
        on = name + f",%.10g,{format_series(lower[0])},{format_series(upper[0])},true\n".encode()
    else:
        on = name + b",%.10g,%.10g,%.10g,true\n"
    for a in range(0, len(grid), _CHART_BLOCK_ROWS):
        b = min(a + _CHART_BLOCK_ROWS, len(grid))
        lo = min(max(start, a), b)  # the run's rows in this block are [lo, hi)
        hi = max(min(stop, b), lo)
        if flat or lo == hi:
            values = grid[a:b]
        else:
            run = grid[lo:hi]
            cells = [None] * (3 * len(run))
            cells[::3], (cells[1::3], cells[2::3]) = run, band.kwh_per_tx_at(run)
            values = (*grid[a:lo], *cells, *grid[hi:b])
        template = off * (lo - a) + on * (hi - lo) + off * (b - hi)
        yield (template % values).decode("utf-8", "surrogatepass")


def chart_rows(
    bands: Sequence[ConsumptionBand],
    baseline_markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> list[str]:
    """The lines of :func:`chart_csv_document` after its header, one per row."""
    chunks = chart_csv_document(bands, baseline_markers, reference_bands)
    next(chunks)  # the header
    # Every chunk ends a line. Split at "\n" only: str.splitlines would also
    # split a name at "\r", "\x85" or "\u2028".
    return [line + "\n" for chunk in chunks for line in chunk.split("\n")[:-1]]


def chart_csv(rows: Sequence[str]) -> str:
    return _csv_lines([_CHART_HEADER]) + "".join(rows)


def chart_csv_document(
    bands: Sequence[ConsumptionBand],
    baseline_markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> Iterator[str]:
    """The chart CSV in chunks: the header, each band's blocks, then the anchors.

    The bands come in network order, and each band comes as blocks of at
    most ``_CHART_BLOCK_ROWS`` (2,048) of its rows, so no chunk holds two
    bands and the document's memory does not grow with the grid. The
    anchors, which can raise, are built before this returns.
    """
    anchors = "".join(_chart_anchor_lines(bands, baseline_markers, reference_bands))
    ordered = sorted(bands, key=lambda b: b.network)
    blocks = chain.from_iterable(map(_band_blocks, ordered))
    return chain([_csv_lines([_CHART_HEADER])], blocks, [anchors])
