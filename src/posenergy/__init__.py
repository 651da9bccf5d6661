"""Throughput-controlled energy consumption estimates for proof-of-stake networks.

The package models a network's consensus-layer power as validator count times
per-validator draw, bounds that draw with optimistic and pessimistic hardware
figures, fits validator count against throughput to extrapolate over a whole
throughput range, and benchmarks the result against Bitcoin and VisaNet
reference figures.

Each export is imported from its home module on first use (PEP 562), so
importing the package, or one submodule such as the CLI, loads no module that
the caller does not run.
"""

# Home module -> the names it exports.
_EXPORTS = {
    "baselines": ("BaselineBand", "load_baselines"),
    "core": (
        "NetworkObservation",
        "NetworkProfile",
        "ValidatorPowerBounds",
        "energy_per_tx",
        "global_power",
        "parse_date",
        "validate_network_id",
    ),
    "estimator": (
        "ConsumptionBand",
        "ContemporaryEstimate",
        "Erratum",
        "GridDomainError",
        "ReportedEstimate",
        "contemporary_estimate",
        "default_grid",
        "find_errata",
    ),
    "ingestion": (
        "DuplicateObservationError",
        "MergeConflictError",
        "Snapshot",
        "SnapshotFormatError",
        "bundled",
        "load_bounds",
        "load_profiles",
        "load_reported",
        "load_snapshots",
        "merge",
        "write_snapshot",
    ),
    "regression": (
        "DegenerateVarianceError",
        "InsufficientDataError",
        "RegressionFit",
        "fit_affine",
        "predict_validators",
    ),
    "solana": (
        "VoteRatioRecord",
        "adjust_tps",
        "adjusted_max_tps",
        "average_tps",
        "mean_nonvote_ratio",
        "nonvote_ratio",
        "nonvote_tps",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Only export names resolve here: any other name raises AttributeError, so
    # ``from posenergy import cli`` still imports the submodule.
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
