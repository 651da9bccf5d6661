"""
Contemporary energy estimates for fourteen proof-of-stake networks
==================================================================

Prices each network's latest (validators, tx/s) observation at its
per-validator hardware power bounds and prints the comparison table next to
the Bitcoin and VisaNet baselines.
"""

from posenergy.baselines import load_baselines
from posenergy.estimator import find_errata
from posenergy.ingestion import bundled, load_bounds, load_reported, load_snapshots
from posenergy.report import (
    TABLE_HEADER,
    comparison_estimates,
    comparison_rows,
    erratum_note,
    render_grid_text,
)

# the bundled snapshot: one observation per network, all taken the same day
snapshot = load_snapshots(bundled("observations.csv"))
bounds = load_bounds(bundled("bounds.csv"))
baselines = load_baselines(bundled("baselines.cfg"))

# a point estimate is just N_validators x watts, priced at both bounds and
# divided by throughput for the per-transaction figure
estimates = comparison_estimates(snapshot.observations, bounds)
print(render_grid_text(TABLE_HEADER, comparison_rows(estimates, baselines)))

# cross-check the computed mid powers against a published reference table;
# two of its rows cannot be reproduced from their own inputs
reported = load_reported(bundled("reported_estimates.csv"))
for erratum in find_errata(estimates, reported):
    print(f"note: {erratum_note(erratum)}")
