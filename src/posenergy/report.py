"""Assembly of pipeline outputs: fit summaries, comparison tables, chart series.

Everything here is deterministic: rows are sorted by network name, floats are
rendered with fixed rules (kW with two decimals, kWh/tx with six significant
digits, raw series with ten significant digits), and no timestamps or
environment details leak into the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .baselines import BaselineBand, BaselineRecord, summarize
from .chart import PointMarker, ReferenceBand
from .core import NetworkObservation, NetworkProfile, ValidatorPowerBounds, energy_per_tx
from .estimator import (
    ConsumptionBand,
    ContemporaryEstimate,
    DEFAULT_GRID_POINTS,
    DEFAULT_MIN_TPS,
    consumption_band,
    contemporary_estimate,
    default_grid,
    latest_observation,
)
from .regression import RegressionFit, fit_affine


def format_kw(value: float) -> str:
    return f"{value:.2f}"


def format_kwh_per_tx(value: float) -> str:
    return format(value, ".6g")


def format_series(value: float) -> str:
    return format(value, ".10g")


def observed_networks(observations: Iterable[NetworkObservation]) -> list[str]:
    return sorted({o.network for o in observations if not o.synthetic})


def fit_networks(
    observations: Iterable[NetworkObservation],
    networks: Sequence[str] | None = None,
    include_origin: bool = True,
) -> list[RegressionFit]:
    """Fit every requested network (default: all observed), sorted by name."""
    all_obs = [o for o in observations if not o.synthetic]
    wanted = list(networks) if networks else observed_networks(all_obs)
    fits = []
    for network in sorted(wanted):
        group = [o for o in all_obs if o.network == network]
        if not group:
            raise ValueError(f"no observations for network {network!r}")
        fits.append(fit_affine(group, include_origin=include_origin))
    return fits


def fit_rows(fits: Sequence[RegressionFit]) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
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


@dataclass(frozen=True)
class TableRow:
    """One rendered line of the comparison table (network or baseline)."""

    name: str
    validators: int | None
    tps: float
    kw_lower: float
    kw_mid: float
    kw_upper: float
    kwh_per_tx_lower: float
    kwh_per_tx_mid: float
    kwh_per_tx_upper: float


def comparison_estimates(
    observations: Iterable[NetworkObservation],
    bounds: Mapping[str, ValidatorPowerBounds],
    networks: Sequence[str] | None = None,
) -> list[ContemporaryEstimate]:
    """Contemporary estimate at each network's latest observation."""
    all_obs = list(observations)
    wanted = sorted(networks) if networks else observed_networks(all_obs)
    estimates = []
    for network in wanted:
        if network not in bounds:
            raise ValueError(f"no power bounds for network {network!r}")
        estimates.append(
            contemporary_estimate(latest_observation(all_obs, network), bounds[network])
        )
    return estimates


def comparison_rows(
    estimates: Sequence[ContemporaryEstimate],
    baseline_records: Sequence[BaselineRecord] = (),
) -> list[TableRow]:
    """Network rows followed by baseline rows, each priced lower/mid/upper."""
    rows = [
        TableRow(
            name=e.network,
            validators=e.validators,
            tps=e.tps,
            kw_lower=e.global_kw_lower,
            kw_mid=e.global_kw_mid,
            kw_upper=e.global_kw_upper,
            kwh_per_tx_lower=e.kwh_per_tx_lower,
            kwh_per_tx_mid=e.kwh_per_tx_mid,
            kwh_per_tx_upper=e.kwh_per_tx_upper,
        )
        for e in estimates
    ]
    for band in summarize(baseline_records):
        rows.append(
            TableRow(
                name=band.name,
                validators=None,
                tps=band.tps,
                kw_lower=band.kw_lower,
                kw_mid=(band.kw_lower + band.kw_upper) / 2.0,
                kw_upper=band.kw_upper,
                kwh_per_tx_lower=band.kwh_per_tx_lower,
                kwh_per_tx_mid=band.kwh_per_tx_mid,
                kwh_per_tx_upper=band.kwh_per_tx_upper,
            )
        )
    return rows


_TABLE_HEADER = (
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


def _table_cells(row: TableRow) -> tuple[str, ...]:
    return (
        row.name,
        "" if row.validators is None else str(row.validators),
        format_series(row.tps),
        format_kw(row.kw_lower),
        format_kw(row.kw_mid),
        format_kw(row.kw_upper),
        format_kwh_per_tx(row.kwh_per_tx_lower),
        format_kwh_per_tx(row.kwh_per_tx_mid),
        format_kwh_per_tx(row.kwh_per_tx_upper),
    )


def render_table_csv(rows: Sequence[TableRow]) -> str:
    return render_grid_csv(_TABLE_HEADER, [_table_cells(r) for r in rows])


def render_table_text(rows: Sequence[TableRow]) -> str:
    return render_grid_text(_TABLE_HEADER, [_table_cells(r) for r in rows])


def render_grid_text(header: tuple[str, ...], rows: Sequence[tuple[str, ...]]) -> str:
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


def render_grid_csv(header: tuple[str, ...], rows: Sequence[tuple[str, ...]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def chart_bands(
    observations: Iterable[NetworkObservation],
    profiles: Mapping[str, NetworkProfile],
    networks: Sequence[str] | None = None,
    include_origin: bool = True,
    min_tps: float = DEFAULT_MIN_TPS,
    n_points: int = DEFAULT_GRID_POINTS,
) -> list[ConsumptionBand]:
    """Fit each network and evaluate its band over the default grid."""
    all_obs = [o for o in observations if not o.synthetic]
    wanted = sorted(networks) if networks else observed_networks(all_obs)
    bands = []
    for network in wanted:
        if network not in profiles:
            raise ValueError(f"no throughput profile for network {network!r}")
        profile = profiles[network]
        fit = fit_affine(
            [o for o in all_obs if o.network == network], include_origin=include_origin
        )
        bands.append(consumption_band(fit, profile, default_grid(profile, n_points, min_tps)))
    return bands


def observation_markers(
    observations: Iterable[NetworkObservation],
    bounds: Mapping[str, ValidatorPowerBounds],
    networks: Sequence[str],
) -> list[PointMarker]:
    """Two markers per network: the latest observation priced at each bound."""
    all_obs = list(observations)
    markers = []
    for network in sorted(networks):
        obs = latest_observation(all_obs, network)
        if obs.tps <= 0:
            continue
        b = bounds[network]
        for draw in (b.lower_w, b.upper_w):
            markers.append(
                PointMarker(network, obs.tps, energy_per_tx(obs.validators, draw, obs.tps))
            )
    return markers


def baseline_chart_elements(
    baseline_records: Sequence[BaselineRecord],
) -> tuple[list[PointMarker], list[ReferenceBand]]:
    """Degenerate baselines become markers, lower/upper pairs become bands."""
    markers = []
    refs = []
    for band in summarize(baseline_records):
        if band.kwh_per_tx_lower == band.kwh_per_tx_upper:
            markers.append(PointMarker(band.name, band.tps, band.kwh_per_tx_lower))
        else:
            refs.append(ReferenceBand(band.name, band.kwh_per_tx_lower, band.kwh_per_tx_upper))
    return markers, refs


_CHART_HEADER = ("network", "tps", "kwh_per_tx_lower", "kwh_per_tx_upper", "physical")


def chart_rows(
    bands: Sequence[ConsumptionBand],
    baseline_markers: Sequence[PointMarker] = (),
    reference_bands: Sequence[ReferenceBand] = (),
) -> list[tuple[str, ...]]:
    """Flatten band series (plus baseline anchors) into CSV cells.

    Reference bands contribute two rows, pinned to the extremes of the
    plotted grids, which is enough to reconstruct a horizontal band.
    """
    rows = []
    for band in sorted(bands, key=lambda b: b.network):
        # f"{v:.10g}" is format_series, inlined for the per-point hot path.
        rows += [
            (band.network, f"{t:.10g}", f"{lo:.10g}", f"{up:.10g}", "true" if ok else "false")
            for t, lo, up, ok in zip(
                band.tps, band.kwh_per_tx_lower, band.kwh_per_tx_upper, band.physical
            )
        ]
    grid_extremes = [t for band in bands for t in (band.tps[0], band.tps[-1])]
    for ref in sorted(reference_bands, key=lambda r: r.label):
        for tps in (min(grid_extremes), max(grid_extremes)):
            rows.append(
                (
                    ref.label,
                    format_series(tps),
                    format_series(ref.kwh_per_tx_lower),
                    format_series(ref.kwh_per_tx_upper),
                    "true",
                )
            )
    for marker in sorted(baseline_markers, key=lambda m: (m.label, m.tps)):
        rows.append(
            (
                marker.label,
                format_series(marker.tps),
                format_series(marker.kwh_per_tx),
                format_series(marker.kwh_per_tx),
                "true",
            )
        )
    return rows


def chart_csv(rows: Sequence[tuple[str, ...]]) -> str:
    return render_grid_csv(_CHART_HEADER, rows)
