"""Command line interface.

Subcommands: ``fit``, ``table``, ``chart``, ``baseline`` and
``adjust-solana``. Every input flag defaults to the data files bundled with
the package, so each command runs standalone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import report
from .baselines import load_baselines, summarize
from .chart import render_chart
from .estimator import DEFAULT_GRID_POINTS, DEFAULT_MIN_TPS, find_errata, printed_tolerance
from .ingestion import bundled, load_bounds, load_profiles, load_reported, load_snapshots
from .solana import (
    DEFAULT_POSTULATED_MAX_TPS,
    adjusted_max_tps,
    average_tps,
    mean_nonvote_ratio,
    nonvote_ratio,
    nonvote_tps,
)
from .units import SECONDS_PER_YEAR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posenergy",
        description="Throughput-controlled energy estimates for proof-of-stake networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit validator count against throughput per network")
    _data_flags(fit, observations=True)
    fit.add_argument("--network", action="append", help="restrict to a network (repeatable)")
    fit.add_argument(
        "--no-origin",
        action="store_true",
        help="do not inject the zero-throughput origin point",
    )
    _output_flags(fit)

    table = sub.add_parser("table", help="contemporary energy estimates plus baselines")
    _data_flags(table, observations=True, bounds=True, baselines=True, reported=True)
    table.add_argument("--network", action="append", help="restrict to a network (repeatable)")
    table.add_argument(
        "--verify",
        action="store_true",
        help="cross-check computed global power against the published reference table",
    )
    _output_flags(table)

    chart = sub.add_parser("chart", help="extrapolated consumption bands as CSV or SVG")
    _data_flags(chart, observations=True, bounds=True, profiles=True, baselines=True)
    chart.add_argument("--network", action="append", help="restrict to a network (repeatable)")
    chart.add_argument(
        "--no-origin",
        action="store_true",
        help="do not inject the zero-throughput origin point",
    )
    chart.add_argument(
        "--no-baselines", action="store_true", help="omit Bitcoin/Visa reference series"
    )
    chart.add_argument(
        "--lmin",
        type=float,
        default=DEFAULT_MIN_TPS,
        help="lowest throughput on the grid (default %(default)s)",
    )
    chart.add_argument(
        "--points",
        type=int,
        default=DEFAULT_GRID_POINTS,
        help="grid points per network (default %(default)s)",
    )
    chart.add_argument(
        "--format", choices=("csv", "svg"), default="csv", help="output format"
    )
    chart.add_argument("--out", help="write to this path instead of stdout")

    baseline = sub.add_parser("baseline", help="reference-system energy figures")
    _data_flags(baseline, baselines=True, reported=True)
    baseline.add_argument(
        "--verify",
        action="store_true",
        help="note published per-transaction figures that disagree with the computed ones",
    )
    _output_flags(baseline)

    adjust = sub.add_parser(
        "adjust-solana", help="vote/nonvote correction for reported Solana throughput"
    )
    adjust.add_argument(
        "--observations",
        help="snapshot CSV carrying nonvote/total day counts (default: bundled)",
    )
    adjust.add_argument(
        "--postulated-max",
        type=float,
        default=DEFAULT_POSTULATED_MAX_TPS,
        help="vote-inclusive postulated maximum tps (default %(default)s)",
    )
    _output_flags(adjust)

    return parser


def _data_flags(
    parser: argparse.ArgumentParser,
    observations: bool = False,
    bounds: bool = False,
    profiles: bool = False,
    baselines: bool = False,
    reported: bool = False,
) -> None:
    if observations:
        parser.add_argument("--observations", help="snapshot CSV (default: bundled)")
    if bounds:
        parser.add_argument("--bounds", help="per-validator power bounds CSV (default: bundled)")
    if profiles:
        parser.add_argument("--profiles", help="max-throughput profiles CSV (default: bundled)")
    if baselines:
        parser.add_argument("--baselines", help="baseline config file (default: bundled)")
    if reported:
        parser.add_argument(
            "--reported", help="published reference estimates CSV (default: bundled)"
        )


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    parser.add_argument("--out", help="write to this path instead of stdout")


def _path(value: str | None, default_name: str) -> Path:
    return Path(value) if value else bundled(default_name)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_fit(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    fits = report.fit_networks(
        snapshot.observations, networks=args.network, include_origin=not args.no_origin
    )
    header, rows = report.fit_rows(fits)
    render = report.render_grid_csv if args.format == "csv" else report.render_grid_text
    _emit(render(header, rows), args.out)


def _cmd_table(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    bounds = load_bounds(_path(args.bounds, "bounds.csv"))
    baseline_records = load_baselines(_path(args.baselines, "baselines.cfg"))
    estimates = report.comparison_estimates(
        snapshot.observations, bounds, networks=args.network
    )
    rows = report.comparison_rows(estimates, baseline_records)
    render = report.render_table_csv if args.format == "csv" else report.render_table_text
    _emit(render(rows), args.out)
    if args.verify:
        reported = load_reported(_path(args.reported, "reported_estimates.csv"))
        for erratum in find_errata(estimates, reported):
            print(
                f"note: published global power for {erratum.network} "
                f"({report.format_kw(erratum.reported_kw)} kW) is not reproducible from "
                f"its own validator count and power bounds "
                f"(computed {report.format_kw(erratum.computed_kw)} kW)",
                file=sys.stderr,
            )


def _cmd_chart(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    bounds = load_bounds(_path(args.bounds, "bounds.csv"))
    profiles = load_profiles(_path(args.profiles, "profiles.csv"), bounds)
    networks = sorted(args.network) if args.network else report.observed_networks(
        snapshot.observations
    )
    bands = report.chart_bands(
        snapshot.observations,
        profiles,
        networks=networks,
        include_origin=not args.no_origin,
        min_tps=args.lmin,
        n_points=args.points,
    )
    markers = report.observation_markers(snapshot.observations, bounds, networks)
    baseline_markers, reference_bands = [], []
    if not args.no_baselines:
        baseline_records = load_baselines(_path(args.baselines, "baselines.cfg"))
        baseline_markers, reference_bands = report.baseline_chart_elements(baseline_records)
    if args.format == "csv":
        rows = report.chart_rows(bands, baseline_markers, reference_bands)
        _emit(report.chart_csv(rows), args.out)
    else:
        svg, _ = render_chart(bands, markers + baseline_markers, reference_bands)
        _emit(svg, args.out)


def _cmd_baseline(args: argparse.Namespace) -> None:
    records = load_baselines(_path(args.baselines, "baselines.cfg"))
    bands = summarize(records)
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
            report.format_series(band.tps),
            report.format_series(band.kwh_per_second_lower * SECONDS_PER_YEAR),
            report.format_series(band.kwh_per_second_upper * SECONDS_PER_YEAR),
            report.format_series(band.kwh_per_second_lower),
            report.format_series(band.kwh_per_second_upper),
            report.format_kwh_per_tx(band.kwh_per_tx_lower),
            report.format_kwh_per_tx(band.kwh_per_tx_mid),
            report.format_kwh_per_tx(band.kwh_per_tx_upper),
        )
        for band in bands
    ]
    render = report.render_grid_csv if args.format == "csv" else report.render_grid_text
    _emit(render(header, rows), args.out)
    if args.verify:
        reported = load_reported(_path(args.reported, "reported_estimates.csv"))
        for band in bands:
            row = reported.get(band.name)
            if row is None:
                continue
            tol = printed_tolerance(row.kwh_per_tx, decimals=2)
            if abs(band.kwh_per_tx_mid - row.kwh_per_tx) > tol:
                print(
                    f"note: published energy per transaction for {band.name} "
                    f"({row.kwh_per_tx} kWh/tx) does not match the midpoint of the "
                    f"computed bounds ({report.format_kwh_per_tx(band.kwh_per_tx_mid)} kWh/tx)",
                    file=sys.stderr,
                )


def _cmd_adjust_solana(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "solana_votes.csv"))
    records = sorted(snapshot.vote_records, key=lambda r: r.date)
    if not records:
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
            report.format_series(r.reported_tps),
            str(r.nonvote_tx_per_day),
            str(r.total_tx_per_day),
            report.format_series(average_tps(r)),
            report.format_series(nonvote_ratio(r)),
            report.format_series(nonvote_tps(r)),
        )
        for r in records
    ]
    render = report.render_grid_csv if args.format == "csv" else report.render_grid_text
    adjusted = adjusted_max_tps(args.postulated_max, records)
    summary = (
        f"# mean_nonvote_ratio,{report.format_series(mean_nonvote_ratio(records))}\n"
        f"# adjusted_max_tps,{report.format_series(adjusted)}\n"
    )
    _emit(render(header, rows) + summary, args.out)


_COMMANDS = {
    "fit": _cmd_fit,
    "table": _cmd_table,
    "chart": _cmd_chart,
    "baseline": _cmd_baseline,
    "adjust-solana": _cmd_adjust_solana,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
