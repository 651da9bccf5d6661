"""The runtime is offline: no module of the package imports a network or thread-pool module.

The check reads the source with ``ast``, so an import inside a function,
which an import-time check never sees, fails it as well.
"""

import ast
from pathlib import Path

import posenergy

ONLINE_MODULES = {"urllib", "http", "socket", "ssl", "concurrent"}
SOURCES = sorted(Path(posenergy.__file__).parent.glob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_network_code():
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in ONLINE_MODULES
    ]
    assert found == []
