"""Span recording for the benchmark's traced runs.

A :class:`Tracer` wraps the public entry functions of each posenergy layer
and rebinds every module attribute (and module-level dict value, such as the
CLI's command table) that refers to them, so callers inside the package go
through the wrapper. Per-point helpers (``energy_per_tx``,
``predict_validators``, ``_check_finite``, the ``format_*`` functions) are
left alone: their time counts as self time of the layer that calls them.

Spans are ``[name, layer, start, end, parent]`` lists kept in memory; the
caller writes them out once. Counts are gathered at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer (the posenergy module that defines the function) -> entry points.
ENTRY_POINTS = {
    "cli": (
        "main",
        "build_parser",
        "_emit",
        "_cmd_fit",
        "_cmd_table",
        "_cmd_chart",
        "_cmd_baseline",
        "_cmd_adjust_solana",
    ),
    "ingestion": (
        "load_snapshots",
        "load_bounds",
        "load_profiles",
        "load_reported",
        "merge",
        "write_snapshot",
    ),
    "regression": ("fit_affine",),
    "estimator": (
        "default_grid",
        "consumption_band",
        "contemporary_estimate",
        "latest_observation",
        "find_errata",
    ),
    "report": (
        "fit_networks",
        "fit_rows",
        "comparison_estimates",
        "comparison_rows",
        "render_table_csv",
        "render_table_text",
        "render_grid_csv",
        "render_grid_text",
        "chart_bands",
        "observation_markers",
        "baseline_chart_elements",
        "chart_rows",
        "chart_csv",
    ),
    "chart": ("render_chart",),
    "baselines": ("load_baselines", "summarize"),
    "solana": ("average_tps", "nonvote_ratio", "nonvote_tps", "adjusted_max_tps"),
}
LAYERS = tuple(ENTRY_POINTS)


def band_size(band) -> tuple[int, int]:
    """(points, physical points) of a consumption band, row- or column-shaped."""
    points = getattr(band, "points", None)
    if points is not None:
        return len(points), sum(1 for p in points if p.physical)
    return len(band.tps), sum(1 for flag in band.physical if flag)


def _count(counts: Counter, name: str, result, args: tuple) -> None:
    if name == "ingestion.load_snapshots":
        observations = len(result.observations)
        counts["ingestion.snapshot_rows"] += observations + len(result.vote_records)
        counts["ingestion.observations"] += observations
    elif name in ("ingestion.load_bounds", "ingestion.load_profiles", "ingestion.load_reported"):
        counts["ingestion.rows_in"] += len(result)
    elif name == "ingestion.write_snapshot" and hasattr(args[1], "__len__"):
        counts["ingestion.rows_out"] += len(args[1])
    elif name == "regression.fit_affine":
        counts["regression.fits"] += 1
        counts["regression.points"] += result.n_points
    elif name == "estimator.consumption_band":
        points, physical = band_size(result)
        counts["estimator.band_points"] += points
        counts["estimator.physical_points"] += physical
    elif name == "report.fit_rows":
        counts["report.rows_out"] += len(result[1])
    elif name in ("report.comparison_rows", "report.chart_rows"):
        counts["report.rows_out"] += len(result)
    elif name == "chart.render_chart":
        counts["chart.svg_bytes"] += len(result[0].encode("utf-8"))
    elif name == "cli._emit":
        counts["cli.out_bytes"] += len(args[0].encode("utf-8"))


class Tracer:
    """Records nested spans around the wrapped entry points of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][2:4] = [start, end]

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            # Counting gets a span of its own, so its cost lands in the
            # "trace" pseudo-layer, not in the self time of the caller.
            with self.span(name, "trace"):
                _count(self.counts, name, result, args)
            return result

        return traced

    def install(self, package: str = "posenergy") -> None:
        """Rebind every reference to an entry point in the loaded package."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        replacements = {}
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    replacements[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._patch(namespace, key, value, replacements)
                if isinstance(value, dict):
                    for inner_key, inner in list(value.items()):
                        self._patch(value, inner_key, inner, replacements)

    def _patch(self, container: dict, key, value, replacements: dict) -> None:
        hit = replacements.get(id(value))
        if hit is not None and hit[0] is value:
            container[key] = hit[1]
            self._patches.append((container, key, value))

    def uninstall(self) -> None:
        for container, key, value in reversed(self._patches):
            container[key] = value
        self._patches.clear()


def self_times(spans: list[list]) -> Counter:
    """Seconds per layer: each span's duration minus that of its direct children."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Counter = Counter()
    for index, (_, layer, start, end, _) in enumerate(spans):
        totals[layer] += end - start - covered[index]
    return totals
