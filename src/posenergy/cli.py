"""Command line interface.

Subcommands: ``fit``, ``table``, ``chart``, ``baseline`` and
``adjust-solana``. Every input flag defaults to the data files bundled with
the package, so each command runs standalone.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext, suppress
from pathlib import Path
from typing import Iterable, TextIO

from . import report
from .baselines import load_baselines
from .chart import render_chart
from .estimator import (
    DEFAULT_GRID_POINTS,
    DEFAULT_MIN_TPS,
    Erratum,
    find_baseline_errata,
    find_errata,
)
from .ingestion import bundled, load_bounds, load_profiles, load_reported, load_snapshots
from .solana import DEFAULT_POSTULATED_MAX_TPS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posenergy",
        description="Throughput-controlled energy estimates for proof-of-stake networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit validator count against throughput per network")
    _data_flags(fit, "observations")
    fit.add_argument("--network", action="append", help="restrict to a network (repeatable)")
    fit.add_argument(
        "--no-origin",
        action="store_true",
        help="do not inject the zero-throughput origin point",
    )
    _output_flags(fit)

    table = sub.add_parser("table", help="contemporary energy estimates plus baselines")
    _data_flags(table, "observations", "bounds", "baselines", "reported")
    table.add_argument("--network", action="append", help="restrict to a network (repeatable)")
    table.add_argument(
        "--verify",
        action="store_true",
        help="note reference global power figures that disagree with the computed ones",
    )
    _output_flags(table)

    chart = sub.add_parser("chart", help="extrapolated consumption bands as CSV or SVG")
    _data_flags(chart, "observations", "bounds", "profiles", "baselines")
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
    _data_flags(baseline, "baselines", "reported")
    baseline.add_argument(
        "--verify",
        action="store_true",
        help="note reference per-transaction figures that disagree with the computed ones",
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


_DATA_FILES = {
    "observations": "snapshot CSV",
    "bounds": "per-validator power bounds CSV",
    "profiles": "max-throughput profiles CSV",
    "baselines": "baseline config file",
    "reported": "reference estimates CSV",
}


def _data_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", help=f"{_DATA_FILES[name]} (default: bundled)")


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    parser.add_argument("--out", help="write to this path instead of stdout")


def _path(value: str | None, default_name: str) -> Path:
    return Path(value) if value else bundled(default_name)


def _emit(text: str, stream: TextIO) -> None:
    stream.write(text)


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Emit each chunk to ``--out`` or stdout; callers run everything that can raise first."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as stream:
        for chunk in chunks:
            _emit(chunk, stream)
        stream.flush()  # a closed stdout fails here, inside main, not at exit


def _emit_rows(
    args: argparse.Namespace, header: report.Row, rows: list[report.Row], footer: str = ""
) -> None:
    render = report.render_grid_csv if args.format == "csv" else report.render_grid_text
    _write([render(header, rows) + footer], args.out)


def _print_notes(errata: Iterable[Erratum], unmatched: Iterable[str] = ()) -> None:
    for erratum in errata:
        print(f"note: {report.erratum_note(erratum)}", file=sys.stderr)
    for name in unmatched:
        print(f"note: {report.unmatched_note(name)}", file=sys.stderr)


def _cmd_fit(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    fits = report.fit_networks(
        snapshot.observations, networks=args.network, include_origin=not args.no_origin
    )
    _emit_rows(args, *report.fit_rows(fits))


def _cmd_table(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    bounds = load_bounds(_path(args.bounds, "bounds.csv"))
    baselines = load_baselines(_path(args.baselines, "baselines.cfg"))
    estimates = report.comparison_estimates(
        snapshot.observations, bounds, networks=args.network
    )
    reported = load_reported(_path(args.reported, "reported_estimates.csv")) if args.verify else {}
    errata = find_errata(estimates, reported)
    # every observed network, not only the --network selection
    known = {o.network for o in snapshot.observations}
    known.update(band.name for band in baselines)
    _emit_rows(args, report.TABLE_HEADER, report.comparison_rows(estimates, baselines))
    _print_notes(errata, [name for name in reported if name not in known])


def _cmd_chart(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "observations.csv"))
    bounds = load_bounds(_path(args.bounds, "bounds.csv"))
    profiles = load_profiles(_path(args.profiles, "profiles.csv"), bounds)
    bands = report.chart_bands(
        snapshot.observations,
        profiles,
        networks=args.network,
        include_origin=not args.no_origin,
        min_tps=args.lmin,
        n_points=args.points,
    )
    baselines = [] if args.no_baselines else load_baselines(_path(args.baselines, "baselines.cfg"))
    baseline_markers, reference_bands = report.baseline_chart_elements(baselines)
    if args.format == "csv":
        chunks = report.chart_csv_document(bands, baseline_markers, reference_bands)
    else:
        markers = report.observation_markers(
            snapshot.observations, bounds, [b.network for b in bands]
        ) + baseline_markers
        chunks = [render_chart(bands, markers, reference_bands)[0]]
    _write(chunks, args.out)


def _cmd_baseline(args: argparse.Namespace) -> None:
    bands = load_baselines(_path(args.baselines, "baselines.cfg"))
    reported = load_reported(_path(args.reported, "reported_estimates.csv")) if args.verify else {}
    errata = find_baseline_errata(bands, reported)
    _emit_rows(args, *report.baseline_rows(bands))
    _print_notes(errata)


def _cmd_adjust_solana(args: argparse.Namespace) -> None:
    snapshot = load_snapshots(_path(args.observations, "solana_votes.csv"))
    _emit_rows(args, *report.vote_rows(snapshot.vote_records, args.postulated_max))


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
    except BrokenPipeError:
        # The reader left early (`| head -1`), the normal end of a pipeline. Stdout
        # goes to os.devnull, so the flush at exit cannot fail again; a stdout
        # without a descriptor (an in-process caller's buffer) needs no redirect.
        with suppress(OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
