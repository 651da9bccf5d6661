"""The ``empty_memos`` fixture resets every per-process memo of the package.

A memo is a name bound at the top of a module under ``src/posenergy`` whose
name starts with ``_last_``. It is first bound to a literal, and the fixture
binds it to an equal value, so what a memo holds in a test that asks for the
fixture comes from that test alone.
"""

import ast
import importlib

import pytest
from test_unused_names import MODULES


def first_values(tree):
    """Each top-level ``_last_*`` name of the module and the literal it is first bound to."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("_last_"):
                yield target.id, ast.literal_eval(node.value)


MEMOS = [(module, name, first) for module, tree in sorted(MODULES.items())
         for name, first in first_values(tree)]


def test_the_package_has_memos():
    assert MEMOS


@pytest.mark.parametrize("module, name, first", MEMOS, ids=[f"{m}.{n}" for m, n, _ in MEMOS])
def test_fixture_resets_memo(module, name, first, monkeypatch, request):
    owner = importlib.import_module(f"posenergy.{module}")
    monkeypatch.setattr(owner, name, object())
    request.getfixturevalue("empty_memos")
    assert getattr(owner, name) == first
