"""Output oracles for the benchmark.

They read the bundled data with the standard library and re-derive what an
output must say from the paper's arithmetic (``N*W/1000`` kW,
``N*W/(tps*3.6e6)`` kWh/tx) or from properties every band has whatever the
fit model (lower/upper ratio, grid shape). They never call posenergy, so a
later change to the model or the loaders cannot make an oracle agree with a
wrong output. Each check raises :class:`OracleError` naming the first
mismatch.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path

JOULES_PER_KWH = 3.6e6
CHART_HEADER = ["network", "tps", "kwh_per_tx_lower", "kwh_per_tx_upper", "physical"]
SVG_ROOT = "{http://www.w3.org/2000/svg}svg"
POSTULATED_SOLANA_MAX_TPS = 50_000.0


class OracleError(ValueError):
    """An output disagrees with what the bundled inputs imply."""


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class Bundled:
    """The package's bundled data files, parsed independently of posenergy."""

    def __init__(self, data_dir: Path) -> None:
        latest: dict[str, dict[str, str]] = {}
        for row in _rows(data_dir / "observations.csv"):
            if row["validators"] and row["date"] >= latest.get(row["network"], {}).get("date", ""):
                latest[row["network"]] = row
        # network -> (validators, tps) at the latest observation
        self.observations = {
            name: (int(row["validators"]), float(row["tps"])) for name, row in latest.items()
        }
        self.bounds = {
            row["network"]: (float(row["lower_w"]), float(row["upper_w"]))
            for row in _rows(data_dir / "bounds.csv")
        }
        self.max_tps = {
            row["network"]: float(row["max_tps"]) for row in _rows(data_dir / "profiles.csv")
        }
        self.votes = [
            (int(row["nonvote_per_day"]), int(row["total_per_day"]))
            for row in _rows(data_dir / "solana_votes.csv")
            if row["nonvote_per_day"]
        ]
        config = configparser.ConfigParser()
        config.read(data_dir / "baselines.cfg")
        self.baselines = {
            section.rsplit("-", 1)[0] if section.endswith(("-lower", "-upper")) else section
            for section in config.sections()
        }


def within_printed(text: str, exact: float, *, decimals: int | None = None,
                   significant: int | None = None) -> bool:
    """Whether ``text`` is ``exact`` rounded to the stated printed precision."""
    value = float(text)
    if decimals is not None:
        tol = 0.5 * 10.0 ** -decimals
    elif value:
        tol = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - significant + 1)
    else:
        tol = 0.0
    return abs(value - exact) <= tol * (1 + 1e-9) + 1e-12 * abs(exact)


def ols(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """(intercept, slope) of least squares from exactly summed centred sums."""
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    slope = math.fsum(d * (y - mean_y) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    return mean_y - slope * mean_x, slope


def agrees(got: float, want: float, scale: float) -> bool:
    """Agreement at rel 1e-9, with an absolute floor relative to the data scale."""
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9 * scale)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def check_table_csv(text: str, data: Bundled) -> None:
    rows = {r["name"]: r for r in csv.DictReader(io.StringIO(text)) if r["validators"]}
    _expect(set(rows) == set(data.observations), f"table networks {sorted(rows)}")
    for name, row in rows.items():
        n, tps = data.observations[name]
        lower, upper = data.bounds[name]
        _expect(int(row["validators"]) == n, f"{name}: validators {row['validators']}")
        _expect(within_printed(row["tps"], tps, significant=10), f"{name}: tps {row['tps']}")
        for label, watts in (("lower", lower), ("mid", (lower + upper) / 2.0), ("upper", upper)):
            kw, kwh = row[f"kw_{label}"], row[f"kwh_per_tx_{label}"]
            _expect(within_printed(kw, n * watts / 1000.0, decimals=2), f"{name}: kw_{label} {kw}")
            _expect(
                within_printed(kwh, n * watts / (tps * JOULES_PER_KWH), significant=6),
                f"{name}: kwh_per_tx_{label} {kwh}",
            )


def check_fit_csv(text: str, data: Bundled) -> None:
    """Default fits: each network's latest point plus the injected origin."""
    rows = {r["network"]: r for r in csv.DictReader(io.StringIO(text))}
    _expect(set(rows) == set(data.observations), f"fit networks {sorted(rows)}")
    for name, row in rows.items():
        n, tps = data.observations[name]
        intercept, slope = ols([0.0, tps], [0.0, float(n)])
        _expect(row["n_points"] == "2" and row["origin_included"] == "true", f"{name}: {row}")
        _expect(agrees(float(row["intercept"]), intercept, n), f"{name}: intercept {row['intercept']}")
        _expect(agrees(float(row["slope"]), slope, n / tps), f"{name}: slope {row['slope']}")


def check_chart_csv(text: str, data: Bundled, networks, lmin: float, points: int) -> int:
    """Band rows of a chart CSV; returns how many there are.

    On every physical row upper/lower equals upper_w/lower_w; each network's
    grid rises strictly from ``lmin`` to its maximum throughput in exactly
    ``points`` rows. Rows of reference systems are not band rows.
    """
    reader = csv.reader(io.StringIO(text))
    _expect(next(reader, None) == CHART_HEADER, "chart header")
    grids: dict[str, list[float]] = {name: [] for name in networks}
    ratios = {name: data.bounds[name][1] / data.bounds[name][0] for name in networks}
    for network, tps, lower, upper, physical in reader:
        grid = grids.get(network)
        if grid is None:
            _expect(network not in data.max_tps, f"chart: unrequested network {network}")
            continue
        grid.append(float(tps))
        if physical == "true":
            _expect(
                math.isclose(float(upper) / float(lower), ratios[network], rel_tol=1e-9),
                f"{network} at tps {tps}: upper/lower {upper}/{lower}",
            )
        else:
            _expect(physical == "false", f"{network} at tps {tps}: physical {physical!r}")
    for network, grid in grids.items():
        _expect(len(grid) == points, f"{network}: {len(grid)} grid rows, want {points}")
        _expect(all(b > a for a, b in zip(grid, grid[1:])), f"{network}: grid not increasing")
        _expect(math.isclose(grid[0], lmin, rel_tol=1e-9), f"{network}: grid starts {grid[0]}")
        _expect(
            math.isclose(grid[-1], data.max_tps[network], rel_tol=1e-9),
            f"{network}: grid ends {grid[-1]}",
        )
    return sum(len(grid) for grid in grids.values())


def check_svg(payload: bytes) -> None:
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        raise OracleError(f"svg does not parse: {exc}") from exc
    _expect(root.tag == SVG_ROOT, f"svg root is {root.tag}")


def _text_grid(text: str) -> list[list[str]]:
    """Rows of a right-aligned text table, without its header and rule lines."""
    lines = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    return lines[2:]


def check_baseline_text(text: str, data: Bundled) -> None:
    rows = _text_grid(text)
    _expect({row[0] for row in rows} == data.baselines, f"baselines {[r[0] for r in rows]}")
    for row in rows:
        _expect(len(row) == 10 and all(float(cell) > 0 for cell in row[2:]), f"baseline {row}")


def check_adjust_solana_text(text: str, data: Bundled) -> None:
    _expect(len(_text_grid(text)) == len(data.votes), "adjust-solana row count")
    summary = dict(line[2:].split(",") for line in text.splitlines() if line.startswith("# "))
    mean_ratio = math.fsum(nonvote / total for nonvote, total in data.votes) / len(data.votes)
    for key, want in (
        ("mean_nonvote_ratio", mean_ratio),
        ("adjusted_max_tps", POSTULATED_SOLANA_MAX_TPS * mean_ratio),
    ):
        _expect(math.isclose(float(summary[key]), want, rel_tol=1e-9), f"{key} {summary.get(key)}")
