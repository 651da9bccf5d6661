"""No module of the package imports a name it never uses.

A refactor that removes a name's last use should remove its import too. A
name counts as used where the module reads it, lists it in ``__all__`` or
names it in a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posenergy"


def unused_imports(source):
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                     arguments.vararg, arguments.kwarg]
            annotations += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    parsed = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from itertools import chain, repeat\nchain()\n", ["repeat"]),
        ("import os.path\nimport sys as system\n", ["os", "system"]),
        ("from __future__ import annotations\n", []),
        ("from .core import Record\n__all__ = ['Record']\n", []),
        ("from .chart import PointMarker\ndef f(m: 'list[PointMarker]') -> None: ...\n", []),
        ("from .chart import PointMarker\nx: 'PointMarker'\n", []),
        ("from .chart import PointMarker\nx = 'PointMarker'\n", ["PointMarker"]),
    ],
    ids=["unused", "module-and-alias", "future", "all", "string-annotation",
         "string-variable-annotation", "plain-string"],
)
def test_checker(source, unused):
    assert unused_imports(source) == unused
