"""Exports resolved on first use keep the public API of eager imports.

``posenergy`` imports each exported name from its home module only when it is
first read (PEP 562), so these checks pin what callers see: the same names, the
same objects, and ``dir``, star-imports and unknown names behaving as for any
module.
"""

import sys

import pytest

import posenergy

EXPORTS = [
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
    "contemporary_estimate",
    "default_grid",
    "energy_per_tx",
    "find_errata",
    "fit_affine",
    "global_power",
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


def test_all_lists_the_same_names_in_the_same_order():
    assert posenergy.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_name_is_the_object_its_home_module_defines(name):
    value = getattr(posenergy, name)
    home = value.__module__
    assert home.startswith("posenergy.")
    assert getattr(sys.modules[home], name) is value


def test_dir_lists_every_export():
    assert sorted(set(EXPORTS) - set(dir(posenergy))) == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from posenergy import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == EXPORTS
    assert all(namespace[name] is getattr(posenergy, name) for name in EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'posenergy' has no attribute 'no_such'$"):
        posenergy.no_such  # noqa: B018
    assert not hasattr(posenergy, "no_such")
    # a submodule name is not an export, so ``from posenergy import cli`` imports it
    from posenergy import cli

    assert cli is sys.modules["posenergy.cli"]
