"""Every top-level function, class and constant of the package is read somewhere.

A refactor that removes a name's last reader should remove the name too. A
name defined at the top of a module under ``src/posenergy`` counts as read
where a module of the package reads it, by itself or as an attribute of its
module (``report.TABLE_HEADER``), or names it in a string annotation, and
where ``posenergy.__all__`` lists it. Dunder names are read by Python itself.
"""

import ast
from pathlib import Path

import pytest
from test_unused_imports import annotation_names

import posenergy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posenergy"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}

# Names no module of the package reads, each with the code outside it that
# does. An entry goes with its name: the test fails once nothing reads it.
OUTSIDE_READERS = {
    "report.chart_rows": "bench/sweep.py calls it (ROADMAP items 14 and 20)",
    "report.chart_csv": "bench/sweep.py calls it (ROADMAP items 14 and 20)",
}


def defined(tree):
    """The names the module body binds by ``def``, ``class`` or assignment, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def reads(tree, modules):
    """The names ``tree`` reads, and ``module.name`` for each attribute read of a ``modules`` key.

    A name inside a string annotation counts as read.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.add(f"{node.value.id}.{node.attr}")
        found.update(annotation_names(node))
    return found


def unread(modules):
    """``module.name`` of each top-level name no module in ``modules`` reads, sorted."""
    read = set().union(*(reads(tree, modules) for tree in modules.values()))
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        for name in defined(tree)
        if name not in read and f"{module}.{name}" not in read
    )


def test_every_top_level_name_is_read_or_exported():
    missing = [name for name in unread(MODULES) if name.split(".")[1] not in posenergy.__all__]
    assert missing == sorted(OUTSIDE_READERS)


@pytest.mark.parametrize("qualified", sorted(OUTSIDE_READERS))
def test_outside_reader_still_reads(qualified):
    bench = set().union(*(
        reads(ast.parse(path.read_text(encoding="utf-8")), MODULES)
        for path in (ROOT / "bench").glob("*.py")
    ))
    assert qualified in bench, f"nothing outside the package reads {qualified}: delete it"


@pytest.mark.parametrize(
    "sources, unread_names",
    [
        ({"a": "def f(): ...\n"}, ["a.f"]),
        ({"a": "def f(): ...\nf()\n"}, []),
        ({"a": "X = 1\n", "b": "from . import a\na.X\n"}, []),
        ({"a": "class C: ...\n", "b": "def g(c: 'list[C]') -> None: ...\n"}, ["b.g"]),
        ({"a": "Y: int = 1\n__version__ = '1'\n", "b": "Z = 'Y'\n"}, ["a.Y", "b.Z"]),
        ({"a": "W = 1\n", "b": "W = 2\nobject().W\n"}, ["a.W", "b.W"]),
    ],
    ids=["unread", "called", "module-attribute", "string-annotation", "plain-string",
         "other-attribute"],
)
def test_checker(sources, unread_names):
    assert unread({name: ast.parse(source) for name, source in sources.items()}) == unread_names
