"""The runtime is offline and starts cold fast.

No module of the package imports a network or thread-pool module, nor
``dataclasses``, whose import pulls in ``inspect`` and whose classes compile
their methods with ``exec`` at import. The checks read the source with
``ast``, so an import inside a function, which an import-time check never
sees, fails them as well.
"""

import ast
import os
import subprocess
import sys
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


def imports_of(modules):
    """``<file>: <module>`` for each import of one of ``modules`` in the package source."""
    assert len(SOURCES) >= 10
    return [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in modules
    ]


def test_no_module_imports_network_code():
    assert imports_of(ONLINE_MODULES) == []


def test_no_module_imports_dataclasses():
    assert imports_of({"dataclasses"}) == []


def test_cli_import_loads_no_code_generation_modules():
    # -S keeps the host's site imports out of the loaded set
    env = {**os.environ, "PYTHONPATH": str(Path(posenergy.__file__).parents[1])}
    probe = "import sys, posenergy.cli; print(*sorted({'dataclasses', 'inspect'} & {*sys.modules}))"
    command = [sys.executable, "-S", "-c", probe]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "\n", "")
