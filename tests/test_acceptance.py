"""Acceptance gate.

One test per criterion, in order. Each prints a single line

    ACCEPTANCE <n> <name>: PASS|FAIL

to the real stdout (bypassing capture) and then asserts, so the verdicts are
visible in any pytest run. Tolerances follow the printed precision of the
reference figures: half a unit in the last printed decimal place, or the
stated relative tolerance, whichever is wider.
"""

import math
import time

import numpy as np
import pytest

from posenergy.baselines import load_baselines
from posenergy.cli import main
from posenergy.core import NetworkObservation, NetworkProfile, ValidatorPowerBounds
from posenergy.estimator import (
    ConsumptionBand,
    default_grid,
    find_errata,
    printed_tolerance,
)
from posenergy.ingestion import bundled, load_bounds, load_reported, load_snapshots, merge, write_snapshot
from posenergy.regression import RegressionFit, fit_affine, predict_validators
from posenergy.report import chart_rows, comparison_estimates
from posenergy.solana import VoteRatioRecord, adjusted_max_tps, average_tps, nonvote_ratio


def verdict(capsys, number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line)
    assert ok, f"{line}" + (f" -- {detail}" if detail else "")


# Published mid estimates: global kW (two printed decimals) and, where the
# reference table is independently consistent, kWh/tx (six printed decimals).
CONTEMPORARY_EXPECTED = {
    "algorand": (106.82, 0.003411),
    "avalanche": (101.62, None),
    "bnb": (7.02, None),
    "elrond": (277.76, None),
    "ethereum": (450.15, 0.009956),
    "flow": (37.15, None),
    "hedera": (6.45, 0.000003),
    "near": (13.71, None),
    "polkadot": (16.66, 0.035593),
    "solana": (917.29, 0.000517),
    "tezos": (29.81, None),
    "toncoin": (21.18, None),
}


def test_criterion_1_contemporary_table(capsys):
    started = time.perf_counter()
    snapshot = load_snapshots(bundled("observations.csv"))
    bounds = load_bounds(bundled("bounds.csv"))
    reported = load_reported(bundled("reported_estimates.csv"))
    estimates = {e.network: e for e in comparison_estimates(snapshot.observations, bounds)}
    problems = []
    for network, (kw_expected, kwh_expected) in CONTEMPORARY_EXPECTED.items():
        estimate = estimates[network]
        tol_kw = max(0.005 * kw_expected, printed_tolerance(kw_expected, decimals=2))
        if abs(estimate.global_kw_mid - kw_expected) > tol_kw:
            problems.append(
                f"{network}: kW mid {estimate.global_kw_mid:.4f} vs {kw_expected}"
            )
        if kwh_expected is not None:
            tol_kwh = max(0.005 * kwh_expected, printed_tolerance(kwh_expected, decimals=6))
            if abs(estimate.kwh_per_tx_mid - kwh_expected) > tol_kwh:
                problems.append(
                    f"{network}: kWh/tx mid {estimate.kwh_per_tx_mid:.8f} vs {kwh_expected}"
                )
    errata = [e.network for e in find_errata(list(estimates.values()), reported)]
    if errata != ["cardano", "tron"]:
        problems.append(f"erratum check fired for {errata}, expected cardano and tron")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    verdict(capsys, 1, "contemporary-table reproduction", not problems, "; ".join(problems))


def test_criterion_2_baseline_reduction(capsys):
    bands = {b.name: b for b in load_baselines(bundled("baselines.cfg"))}
    visa, bitcoin = bands["visa"], bands["bitcoin"]
    checks = [
        (visa.kwh_per_second_lower, 5.69, 0.001, "visa kWh/s"),
        (visa.kwh_per_tx_lower, 0.00328, 0.01, "visa kWh/tx"),
        (bitcoin.kwh_per_second_lower, 1598.49, 0.005, "bitcoin lower kWh/s"),
        (bitcoin.kwh_per_tx_lower, 624.0, 0.005, "bitcoin lower kWh/tx"),
        (bitcoin.kwh_per_second_upper, 4256.72, 0.005, "bitcoin upper kWh/s"),
        (bitcoin.kwh_per_tx_upper, 1662.8, 0.005, "bitcoin upper kWh/tx"),
    ]
    problems = [
        f"{label}: {computed:.6f} vs {expected} (±{rel:.1%})"
        for computed, expected, rel, label in checks
        if abs(computed - expected) > rel * expected
    ]
    verdict(capsys, 2, "baseline reduction", not problems, "; ".join(problems))


# Printed appendix cells: ratio to three decimals and nonvote tx/s to the
# nearest integer (one cell was left blank in the source and is skipped).
VOTE_TABLE_PRINTED = [
    (0.189, 327),
    (0.145, 323),
    (0.104, 211),
    (0.233, None),
    (0.190, 635),
    (0.104, 333),
    (0.056, 230),
]


def test_criterion_3_solana_adjustment(capsys):
    records = sorted(
        load_snapshots(bundled("solana_votes.csv")).vote_records, key=lambda r: r.date
    )
    problems = []
    if len(records) != len(VOTE_TABLE_PRINTED):
        problems.append(f"expected {len(VOTE_TABLE_PRINTED)} records, got {len(records)}")
    for record, (ratio_printed, nonvote_printed) in zip(records, VOTE_TABLE_PRINTED):
        ratio = nonvote_ratio(record)
        if abs(ratio - ratio_printed) > 5e-4:
            problems.append(f"{record.date}: ratio {ratio:.4f} vs {ratio_printed}")
        if nonvote_printed is not None:
            computed = record.reported_tps * ratio
            if abs(computed - nonvote_printed) > 1.0:
                problems.append(f"{record.date}: nonvote tx/s {computed:.1f} vs {nonvote_printed}")
    adjusted = adjusted_max_tps(50_000.0, records)
    if abs(adjusted - 7295.0) > 5.0:
        problems.append(f"adjusted max {adjusted:.2f} vs 7295 ±5")
    verdict(capsys, 3, "solana vote adjustment", not problems, "; ".join(problems))


def ols_oracle(xs, ys):
    """Raw normal equations with exact summation; clamped R^2."""
    n = len(xs)
    sum_x = math.fsum(xs)
    sum_y = math.fsum(ys)
    sum_xx = math.fsum(x * x for x in xs)
    sum_xy = math.fsum(x * y for x, y in zip(xs, ys))
    denominator = n * sum_xx - sum_x * sum_x
    slope = (n * sum_xy - sum_x * sum_y) / denominator
    intercept = (sum_y - slope * sum_x) / n
    ss_res = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - sum_y / n) ** 2 for y in ys)
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return intercept, slope, r2


def test_criterion_4_regression_oracle(capsys):
    rng = np.random.default_rng(89472023)
    problems = []
    for index in range(100):
        n = int(rng.integers(2, 11))
        xs = rng.uniform(0.5, 120.0, size=n)
        while np.ptp(xs) < 1e-6:
            xs = rng.uniform(0.5, 120.0, size=n)
        intercept_true = rng.uniform(5.0, 400.0)
        slope_true = rng.uniform(-3.0, 40.0)
        ys = np.maximum(
            0, np.rint(intercept_true + slope_true * xs + rng.normal(0.0, 3.0, size=n))
        ).astype(int)
        if np.ptp(ys) == 0:
            ys[0] += 1
        points = [
            NetworkObservation("net0", "2023-01-01", int(y), float(x))
            for x, y in zip(xs, ys)
        ]
        fit = fit_affine(points, include_origin=False)
        intercept, slope, r2 = ols_oracle([float(x) for x in xs], [float(y) for y in ys])
        for got, want, label in (
            (fit.intercept, intercept, "intercept"),
            (fit.slope, slope, "slope"),
            (fit.r2, r2, "r2"),
        ):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"dataset {index}: {label} {got!r} vs oracle {want!r}")

    # two-point fits pass through both points exactly (dyadic-safe inputs)
    for index in range(30):
        x1 = float(rng.integers(0, 200))
        dx = float(2 ** int(rng.integers(0, 7)))
        y1 = int(rng.integers(0, 4000))
        y2 = int(rng.integers(0, 4000))
        points = [
            NetworkObservation("net0", "2023-01-01", y1, x1),
            NetworkObservation("net0", "2023-01-02", y2, x1 + dx),
        ]
        fit = fit_affine(points, include_origin=False)
        if predict_validators(fit, x1) != float(y1) or predict_validators(fit, x1 + dx) != float(y2):
            problems.append(f"two-point {index}: interpolation not exact")
        if fit.r2 != 1.0:
            problems.append(f"two-point {index}: r2 {fit.r2!r} != 1.0")
    verdict(capsys, 4, "regression oracle equivalence", not problems, "; ".join(problems[:8]))


def test_criterion_5_estimator_properties(capsys):
    bounds = ValidatorPowerBounds("net0", 4.31, 107.86)
    profile = NetworkProfile("net0", bounds, 7295.0)
    grid = default_grid(profile, n_points=120)
    problems = []

    def physical_values(band):
        """The band's physical throughputs and its lower and upper kWh/tx at each."""
        run = band.grid[slice(*band.physical_run)]
        return (run, *band.kwh_per_tx_at(run))

    flat = RegressionFit("net0", 297.0, 0.0, 1.0, 3, False)
    _, lowers, uppers = physical_values(ConsumptionBand(flat, profile, grid))
    if not all(b < a for a, b in zip(lowers, lowers[1:])):
        problems.append("slope-0 lower edge is not strictly decreasing")
    if not all(b < a for a, b in zip(uppers, uppers[1:])):
        problems.append("slope-0 upper edge is not strictly decreasing")

    proportional = RegressionFit("net0", 0.0, 2.0, 1.0, 3, True)
    _, *edges = physical_values(ConsumptionBand(proportional, profile, grid))
    for values in edges:
        if max(values) - min(values) > 1e-12 * max(values):
            problems.append("intercept-0 band is not constant")
            break

    rng = np.random.default_rng(20230131)
    for _ in range(50):
        fit = RegressionFit(
            "net0", float(rng.uniform(0.0, 500.0)), float(rng.uniform(-5.0, 50.0)), 0.9, 4, True
        )
        for rate, lower, upper in zip(*physical_values(ConsumptionBand(fit, profile, grid))):
            if lower > upper:
                problems.append(f"lower > upper at tps {rate}")
                break

    tezos_like = RegressionFit("net0", 440.7, -24.6, 0.8, 8, True)
    band = ConsumptionBand(tezos_like, profile, [20.0])
    start, stop = band.physical_run
    if start != stop or chart_rows([band]) != ["net0,20,0,0,false\n"]:
        problems.append("negative prediction at throughput 20 was not flagged non-physical")
    verdict(capsys, 5, "estimator band properties", not problems, "; ".join(problems))


def test_criterion_6_determinism(capsys, tmp_path):
    pairs = []
    for index in (1, 2):
        table_out = tmp_path / f"table{index}.csv"
        chart_out = tmp_path / f"chart{index}.csv"
        assert main(["table", "--format", "csv", "--out", str(table_out)]) == 0
        assert main(["chart", "--format", "csv", "--out", str(chart_out)]) == 0
        pairs.append((table_out.read_bytes(), chart_out.read_bytes()))
    ok = pairs[0] == pairs[1]
    verdict(capsys, 6, "deterministic outputs", ok, "table or chart output differs across runs")


def test_criterion_7_ingestion_round_trip(capsys, tmp_path):
    observed = load_snapshots(bundled("observations.csv"))
    votes = load_snapshots(bundled("solana_votes.csv"))
    merged = merge(observed.observations, votes.observations)
    vote_records = observed.vote_records + votes.vote_records

    first = tmp_path / "first.csv"
    write_snapshot(first, merged, vote_records)
    reloaded = load_snapshots(first)
    second = tmp_path / "second.csv"
    write_snapshot(second, merge(reloaded.observations), reloaded.vote_records)

    problems = []
    if reloaded.observations != tuple(merged):
        problems.append("observations changed across a serialize/load cycle")
    if sorted(reloaded.vote_records, key=lambda v: v.date) != sorted(
        vote_records, key=lambda v: v.date
    ):
        problems.append("vote records changed across a serialize/load cycle")
    if first.read_bytes() != second.read_bytes():
        problems.append("serialization is not a fixed point")

    rate = average_tps(VoteRatioRecord("2022-12-11", 17_263_338, 309_222_640, 4123.0))
    if abs(rate - 3579.0) > 1.0:
        problems.append(f"per-day normalization gave {rate:.2f}, expected 3579 ±1")
    verdict(capsys, 7, "ingestion round-trip", not problems, "; ".join(problems))


def test_criterion_8_orders_of_magnitude(capsys):
    snapshot = load_snapshots(bundled("observations.csv"))
    bounds = load_bounds(bundled("bounds.csv"))
    bitcoin_lower_kwh_per_tx = 624.0
    shortfalls = []
    for estimate in comparison_estimates(snapshot.observations, bounds):
        ratio = bitcoin_lower_kwh_per_tx / estimate.kwh_per_tx_upper
        if ratio < 1e4:
            shortfalls.append(f"{estimate.network}: only {ratio:,.0f}x below bitcoin")
    verdict(capsys, 8, "orders-of-magnitude separation", not shortfalls, "; ".join(shortfalls))
