"""Throughput-controlled energy consumption estimates for proof-of-stake networks.

The package models a network's consensus-layer power as validator count times
per-validator draw, bounds that draw with optimistic and pessimistic hardware
figures, fits validator count against throughput to extrapolate over a whole
throughput range, and benchmarks the result against Bitcoin and VisaNet
reference figures.
"""

from .baselines import BaselineBand, load_baselines
from .core import (
    NetworkObservation,
    NetworkProfile,
    ValidatorPowerBounds,
    energy_per_tx,
    global_power,
    parse_date,
    validate_network_id,
)
from .estimator import (
    ConsumptionBand,
    ContemporaryEstimate,
    Erratum,
    GridDomainError,
    ReportedEstimate,
    consumption_band,
    contemporary_estimate,
    default_grid,
    find_errata,
    latest_observation,
)
from .ingestion import (
    DuplicateObservationError,
    MergeConflictError,
    Snapshot,
    SnapshotFormatError,
    bundled,
    load_bounds,
    load_profiles,
    load_reported,
    load_snapshots,
    merge,
    write_snapshot,
)
from .regression import (
    DegenerateVarianceError,
    InsufficientDataError,
    RegressionFit,
    fit_affine,
    predict_validators,
)
from .solana import (
    VoteRatioRecord,
    adjust_tps,
    adjusted_max_tps,
    average_tps,
    mean_nonvote_ratio,
    nonvote_ratio,
    nonvote_tps,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineBand",
    "ConsumptionBand",
    "ContemporaryEstimate",
    "DegenerateVarianceError",
    "DuplicateObservationError",
    "Erratum",
    "GridDomainError",
    "InsufficientDataError",
    "MergeConflictError",
    "NetworkObservation",
    "NetworkProfile",
    "RegressionFit",
    "ReportedEstimate",
    "Snapshot",
    "SnapshotFormatError",
    "ValidatorPowerBounds",
    "VoteRatioRecord",
    "adjust_tps",
    "adjusted_max_tps",
    "average_tps",
    "bundled",
    "consumption_band",
    "contemporary_estimate",
    "default_grid",
    "energy_per_tx",
    "find_errata",
    "fit_affine",
    "global_power",
    "latest_observation",
    "load_baselines",
    "load_bounds",
    "load_profiles",
    "load_reported",
    "load_snapshots",
    "mean_nonvote_ratio",
    "merge",
    "nonvote_ratio",
    "nonvote_tps",
    "parse_date",
    "predict_validators",
    "validate_network_id",
    "write_snapshot",
]
