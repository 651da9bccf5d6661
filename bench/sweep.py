"""The library-sweep workload, run warm inside one process.

A seeded generator writes an observation history for the bundled networks;
posenergy only ever sees that CSV and the small per-day CSVs that follow it.
Each op is one analyst refresh through the public API: load and merge a new
day (dropping the oldest, so the window size is fixed), write and reload the
snapshot, fit, evaluate bands, build and render the chart rows, and price
the latest day with the errata check. Oracles run after each op, outside its
timed region.

Usage (normally started by run.py)::

    python bench/sweep.py --seed 1 --seconds 10 --trace 0 --days 250 --work DIR

Prints one JSON object on stdout. With ``--setup-only`` it stops after the
set-up (import, generation, first load) and reports only its duration.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import datetime as dt  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
from run import probe_start  # noqa: E402

FIRST_DAY = dt.date(2022, 1, 1)
GRID_SIZES = (50, 200, 1000)
# One plan cycle: every grid size with and without the origin point.
CYCLE = tuple((points, origin) for points in GRID_SIZES for origin in (True, False))
HEADER = ("network", "date", "validators", "tps", "nonvote_per_day", "total_per_day", "provenance")


class History:
    """Seeded daily observations: validators = intercept + slope*tps + noise.

    About a quarter of the networks react to load so strongly that their
    intercept is negative, which leaves the low end of their band below one
    validator (non-physical). The rest have an intercept of zero or above.
    """

    def __init__(self, seed: int, max_tps: dict[str, float]) -> None:
        self.rng = random.Random(seed)
        self.names = sorted(max_tps)
        self.negative = sorted(self.rng.sample(self.names, round(len(self.names) / 4)))
        self.params = {}
        for name in self.names:
            centre = max_tps[name] * self.rng.uniform(0.005, 0.05)
            level = self.rng.uniform(30.0, 3000.0)
            elasticity = self.rng.uniform(1.2, 1.8) if name in self.negative else self.rng.uniform(0.0, 0.9)
            slope = level * elasticity / centre
            noise = level * self.rng.uniform(0.01, 0.08)
            self.params[name] = (centre, level - slope * centre, slope, noise)

    def day(self, index: int) -> list[tuple[str, dt.date, int, float]]:
        date = FIRST_DAY + dt.timedelta(days=index)
        rows = []
        for name in self.names:
            centre, intercept, slope, noise = self.params[name]
            tps = centre * self.rng.uniform(0.5, 1.5)
            validators = max(0, round(intercept + slope * tps + self.rng.gauss(0.0, noise)))
            rows.append((name, date, validators, tps))
        return rows


def write_rows(path: Path, rows, seed: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for network, date, validators, tps in rows:
            writer.writerow((network, date.isoformat(), validators, repr(tps), "", "", f"generated seed={seed}"))


def check_op(fits, chart_text, estimates, window, data, points, min_tps, origin) -> int:
    """Oracles for one op against the bench's own copy of the window."""
    by_network: dict[str, list[tuple[float, float]]] = {}
    for rows in window:
        for network, _, validators, tps in rows:
            by_network.setdefault(network, []).append((tps, float(validators)))
    if [f.network for f in fits] != sorted(by_network):
        raise oracles.OracleError(f"fitted networks {[f.network for f in fits]}")
    for fit in fits:
        pairs = by_network[fit.network] + ([(0.0, 0.0)] if origin else [])
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        intercept, slope = oracles.ols(xs, ys)
        scale = max(map(abs, ys))
        if not (oracles.agrees(fit.intercept, intercept, scale)
                and oracles.agrees(fit.slope, slope, scale / max(xs))
                and fit.n_points == len(pairs)):
            raise oracles.OracleError(
                f"{fit.network}: fit ({fit.intercept!r}, {fit.slope!r}, n={fit.n_points}) "
                f"vs OLS ({intercept!r}, {slope!r}, n={len(pairs)})"
            )
    latest = {network: (validators, tps) for network, _, validators, tps in window[-1]}
    for est in estimates:
        validators, _ = latest[est.network]
        lower, upper = data.bounds[est.network]
        if not oracles.agrees(est.global_kw_mid, validators * (lower + upper) / 2000.0, 0.0):
            raise oracles.OracleError(f"{est.network}: kw_mid {est.global_kw_mid!r}")
    return oracles.check_chart_csv(chart_text, data, sorted(by_network), min_tps, points)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=250)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--data", type=Path, required=True, help="bundled data directory")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from posenergy import estimator, ingestion, report

    data = oracles.Bundled(args.data)
    history = History(args.seed, data.max_tps)
    window = [history.day(index) for index in range(args.days)]
    history_path, day_path = args.work / "history.csv", args.work / "day.csv"
    snapshot_path = args.work / "snapshot.csv"
    write_rows(history_path, [row for rows in window for row in rows], args.seed)
    observations = list(ingestion.load_snapshots(history_path).observations)
    bounds = ingestion.load_bounds(args.data / "bounds.csv")
    profiles = ingestion.load_profiles(args.data / "profiles.csv", bounds)
    reported = ingestion.load_reported(args.data / "reported_estimates.csv")
    setup_s = time.perf_counter() - STARTED
    start_s = probe_start()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "start_s": start_s}))
        return 0

    plan = random.Random(args.seed + 1)
    trace = tracer.Tracer()
    walls, starts, traced_flags, band_points, errors = [], [], [], [], []
    modules_before = len(sys.modules)
    deadline = time.perf_counter() + args.seconds
    cycle_costs: list[float] = []
    # Whole plan cycles only, so every run sees the same mix of grid sizes;
    # a traced run alternates untraced and traced cycles and needs one of each.
    while len(cycle_costs) < 1 + args.trace or (
        time.perf_counter() + statistics.median(cycle_costs) <= deadline
    ):
        cycle_start = time.perf_counter()
        traced = bool(args.trace) and len(cycle_costs) % 2 == 1
        for points, origin in plan.sample(CYCLE, len(CYCLE)):
            min_tps = 10.0 ** plan.uniform(-3.0, -1.0)
            new_day = history.day(args.days + len(walls))
            write_rows(day_path, new_day, args.seed)
            if traced:
                trace.install()
            outputs = None
            started = time.perf_counter()
            try:
                with trace.span("op", "bench") if traced else contextlib.nullcontext():
                    day = ingestion.load_snapshots(day_path)
                    merged = ingestion.merge(observations, day.observations)
                    oldest = min(o.date for o in merged)
                    observations = [o for o in merged if o.date != oldest]
                    ingestion.write_snapshot(snapshot_path, observations)
                    loaded = ingestion.load_snapshots(snapshot_path).observations
                    fits = report.fit_networks(loaded, include_origin=origin)
                    bands = report.chart_bands(
                        loaded, profiles, include_origin=origin, min_tps=min_tps, n_points=points
                    )
                    chart_text = report.chart_csv(report.chart_rows(bands))
                    estimates = report.comparison_estimates(loaded, bounds)
                    estimator.find_errata(estimates, reported)
                outputs = (fits, chart_text, estimates)
            except Exception as exc:  # a failed op is counted and the run goes on
                errors.append((len(walls), f"op {len(walls)}: {type(exc).__name__}: {exc}"))
            walls.append(time.perf_counter() - started)
            if traced:
                trace.uninstall()
            starts.append(probe_start())
            traced_flags.append(traced)
            window = window[1:] + [new_day]
            emitted = 0
            if outputs is not None:
                try:
                    emitted = check_op(*outputs, window, data, points, min_tps, origin)
                except Exception as exc:  # oracle rejection or unreadable output
                    errors.append((len(walls) - 1, f"op {len(walls) - 1}: oracle: {exc}"))
            band_points.append(emitted)
        cycle_costs.append(time.perf_counter() - cycle_start)

    print(json.dumps({
        "setup_s": setup_s,
        "start_s": start_s,
        "walls": walls,
        "starts": starts,
        "traced": traced_flags,
        "band_points": band_points,
        "errors": errors,
        "new_modules": len(sys.modules) - modules_before,
        "spans": trace.spans,
        "counts": trace.counts,
        "generator": {
            "seed": args.seed,
            "rows": sum(len(rows) for rows in window),
            "window_days": args.days,
            "networks": len(history.names),
            "negative_intercept_share": len(history.negative) / len(history.names),
            "negative_intercept_networks": history.negative,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
