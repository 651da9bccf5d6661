"""Command line interface.

Subcommands: ``fit``, ``table``, ``chart``, ``baseline`` and
``adjust-solana``. Every input flag defaults to the data files bundled with
the package, so each command runs standalone. Each command imports the
modules it runs inside its function, so a run loads no other command's code.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, TextIO

if TYPE_CHECKING:
    from .core import NetworkObservation
    from .estimator import ContemporaryEstimate, Erratum, ReportedEstimate
    from .ingestion import Snapshot
    from .report import Row


def build_parser() -> argparse.ArgumentParser:
    from .estimator import DEFAULT_GRID_POINTS, DEFAULT_MIN_TPS
    from .solana import DEFAULT_POSTULATED_MAX_TPS

    parser = argparse.ArgumentParser(
        prog="posenergy",
        description="Throughput-controlled energy estimates for proof-of-stake networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit validator count against throughput per network")
    _add_flags(fit, "observations", "network", "no-origin", "format", "out")

    table = sub.add_parser("table", help="contemporary energy estimates plus baselines")
    _add_flags(table, "observations", "bounds", "baselines", "reported", "network")
    table.add_argument(
        "--verify",
        action="store_true",
        help="note reference global power figures that disagree with the computed ones",
    )
    _add_flags(table, "format", "out")

    chart = sub.add_parser("chart", help="extrapolated consumption bands as CSV or SVG")
    _add_flags(chart, "observations", "bounds", "profiles", "baselines", "network", "no-origin")
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
    _add_flags(chart, "out")

    baseline = sub.add_parser("baseline", help="reference-system energy figures")
    _add_flags(baseline, "baselines", "reported")
    baseline.add_argument(
        "--verify",
        action="store_true",
        help="note reference per-transaction figures that disagree with the computed ones",
    )
    _add_flags(baseline, "format", "out")

    adjust = sub.add_parser(
        "adjust-solana", help="vote/nonvote correction for reported Solana throughput"
    )
    _add_flags(adjust, "votes")
    adjust.add_argument(
        "--postulated-max",
        type=float,
        default=DEFAULT_POSTULATED_MAX_TPS,
        help="vote-inclusive postulated maximum tps (default %(default)s)",
    )
    _add_flags(adjust, "format", "out")

    return parser


def _data_flag(flag: str, name: str, what: str) -> tuple[str, dict[str, Any]]:
    """A data flag's entry: its value as a path, or the bundled file ``name`` for ""."""

    def path(value: str) -> Path:
        from .ingestion import bundled

        return Path(value) if value else bundled(name)

    # argparse passes a str default through ``type``: an omitted flag reads ``name``
    return flag, dict(default="", type=path, help=f"{what} (default: bundled)")


# Each flag that more than one subcommand takes, once: the flag and its
# ``add_argument`` keywords. A data flag reads the bundled file it names when
# omitted or given as "".
_FLAGS = {
    "observations": _data_flag("--observations", "observations.csv", "snapshot CSV"),
    "votes": _data_flag(
        "--observations", "solana_votes.csv", "snapshot CSV carrying nonvote/total day counts"
    ),
    "bounds": _data_flag("--bounds", "bounds.csv", "per-validator power bounds CSV"),
    "profiles": _data_flag("--profiles", "profiles.csv", "max-throughput profiles CSV"),
    "baselines": _data_flag("--baselines", "baselines.cfg", "baseline config file"),
    "reported": _data_flag("--reported", "reported_estimates.csv", "reference estimates CSV"),
    "network": ("--network", dict(action="append", help="restrict to a network (repeatable)")),
    "no-origin": (
        "--no-origin",
        dict(
            action="store_true",
            help="do not inject the zero-throughput origin point "
            "(needs observations on 2 or more dates per network)",
        ),
    ),
    "format": ("--format", dict(choices=("text", "csv"), default="text", help="output format")),
    "out": ("--out", dict(help="write to this path instead of stdout")),
}


def _add_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        flag, options = _FLAGS[key]
        parser.add_argument(flag, **options)


def _emit(text: str, stream: TextIO) -> None:
    stream.write(text)


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Emit each chunk to ``--out`` or stdout; callers run everything that can raise first."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as stream:
        for chunk in chunks:
            _emit(chunk, stream)
        stream.flush()  # a closed stdout fails here, inside main, not at exit


def _emit_rows(
    args: argparse.Namespace, header: Row, rows: list[Row], footer: str = ""
) -> None:
    from . import report

    render = report.render_grid_csv if args.format == "csv" else report.render_grid_text
    _write([render(header, rows) + footer], args.out)


def _print_notes(
    errata: Iterable[Erratum],
    mismatched: Iterable[tuple[ReportedEstimate, ContemporaryEstimate]] = (),
    unmatched: Iterable[str] = (),
) -> None:
    from . import report

    for erratum in errata:
        print(f"note: {report.erratum_note(erratum)}", file=sys.stderr)
    for row, estimate in mismatched:
        print(f"note: {report.input_mismatch_note(row, estimate)}", file=sys.stderr)
    for name in unmatched:
        print(f"note: {report.unmatched_note(name)}", file=sys.stderr)


def _selected(snapshot: Snapshot, args: argparse.Namespace) -> list[NetworkObservation]:
    """The observations of the ``--network`` networks, or of every network without the flag."""
    from . import report

    groups = report.select_networks(snapshot.observations, args.network).values()
    return [obs for group in groups for obs in group]


def _cmd_fit(args: argparse.Namespace) -> None:
    from . import report
    from .ingestion import load_snapshots

    snapshot = load_snapshots(args.observations)
    fits = report.fit_networks(_selected(snapshot, args), include_origin=not args.no_origin)
    _emit_rows(args, *report.fit_rows(fits))


def _cmd_table(args: argparse.Namespace) -> None:
    from . import report
    from .baselines import load_baselines
    from .estimator import find_errata, find_input_mismatches
    from .ingestion import load_bounds, load_reported, load_snapshots

    snapshot = load_snapshots(args.observations)
    bounds = load_bounds(args.bounds)
    baselines = load_baselines(args.baselines)
    estimates = report.comparison_estimates(_selected(snapshot, args), bounds)
    reported = load_reported(args.reported) if args.verify else {}
    errata = find_errata(estimates, reported)
    mismatched = find_input_mismatches(estimates, reported)
    # every observed network, not only the --network selection
    known = {o.network for o in snapshot.observations}
    known.update(band.name for band in baselines)
    _emit_rows(args, report.TABLE_HEADER, report.comparison_rows(estimates, baselines))
    _print_notes(errata, mismatched, [name for name in reported if name not in known])


def _cmd_chart(args: argparse.Namespace) -> None:
    from . import report
    from .baselines import load_baselines
    from .chart import render_chart
    from .ingestion import load_bounds, load_profiles, load_snapshots

    snapshot = load_snapshots(args.observations)
    bounds = load_bounds(args.bounds)
    profiles = load_profiles(args.profiles, bounds)
    observations = _selected(snapshot, args)
    bands = report.chart_bands(observations, profiles, include_origin=not args.no_origin,
                               min_tps=args.lmin, n_points=args.points)
    baselines = [] if args.no_baselines else load_baselines(args.baselines)
    baseline_markers, reference_bands = report.baseline_chart_elements(baselines)
    if args.format == "csv":
        chunks = report.chart_csv_document(bands, baseline_markers, reference_bands)
    else:
        markers = report.observation_markers(observations, bounds) + baseline_markers
        chunks = [render_chart(bands, markers, reference_bands)]
    _write(chunks, args.out)


def _cmd_baseline(args: argparse.Namespace) -> None:
    from . import report
    from .baselines import load_baselines
    from .estimator import find_baseline_errata
    from .ingestion import load_reported

    bands = load_baselines(args.baselines)
    reported = load_reported(args.reported) if args.verify else {}
    errata = find_baseline_errata(bands, reported)
    _emit_rows(args, *report.baseline_rows(bands))
    _print_notes(errata)


def _cmd_adjust_solana(args: argparse.Namespace) -> None:
    from . import report
    from .ingestion import load_snapshots

    snapshot = load_snapshots(args.observations)
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
