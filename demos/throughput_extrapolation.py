"""
Extrapolating consumption bands over throughput
===============================================

Fits validator count against throughput per network (with the origin
assumption: zero throughput needs zero validators), then sweeps each fit
across a log-spaced grid up to the network's postulated maximum throughput.
The result is a band of kWh-per-transaction between the two hardware power
bounds, rendered as a log-log SVG chart.
"""

import sys

from posenergy.baselines import load_baselines
from posenergy.chart import DEFAULT_HEIGHT, DEFAULT_WIDTH, chart_geometry, render_chart
from posenergy.ingestion import bundled, load_bounds, load_profiles, load_snapshots
from posenergy.report import (
    baseline_chart_elements,
    chart_bands,
    fit_networks,
    fit_rows,
    observation_markers,
    render_grid_text,
)

snapshot = load_snapshots(bundled("observations.csv"))
bounds = load_bounds(bundled("bounds.csv"))
profiles = load_profiles(bundled("profiles.csv"), bounds)

# each network gets an affine fit N = intercept + slope * tps; with a single
# observation plus the origin this reduces to a line through both points
fits = fit_networks(snapshot.observations)
header, rows = fit_rows(fits)
print(render_grid_text(header, rows))

# sweep the fits over log-spaced throughput grids and add the reference
# systems: Bitcoin as a horizontal band, Visa as a single point
bands = chart_bands(snapshot.observations, profiles)
markers = observation_markers(snapshot.observations, bounds)
baseline_markers, reference_bands = baseline_chart_elements(
    load_baselines(bundled("baselines.cfg"))
)

markers += baseline_markers
svg = render_chart(bands, markers, reference_bands)
geometry = chart_geometry(bands, markers, reference_bands)

out = sys.argv[1] if len(sys.argv) > 1 else "throughput_bands.svg"
with open(out, "w", encoding="utf-8") as handle:
    handle.write(svg)
print(f"wrote {out} ({DEFAULT_WIDTH}x{DEFAULT_HEIGHT}, "
      f"x decades {geometry.x_log_min:g}..{geometry.x_log_max:g})")
