"""The runtime is offline and starts cold fast.

No module of the package imports a network or thread-pool module, nor
``dataclasses``, whose import pulls in ``inspect`` and whose classes compile
their methods with ``exec`` at import, nor ``tempfile`` or ``threading``:
the CLI runs in one process and writes no temporary file. The checks read
the source with ``ast``, so an import inside a function, which an
import-time check never sees, fails them as well. Fresh ``python -S``
processes pin what is loaded: ``import posenergy`` loads no submodule,
``import posenergy.cli`` no command's code, and each default command only
the modules it runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_module_imports_tempfile_or_threading():
    assert imports_of({"tempfile", "threading"}) == []


# Code generation, and the temporary-file chain (tempfile pulls in the rest)
NOT_LOADED = {"dataclasses", "inspect", "tempfile", "threading", "shutil", "random", "bz2", "lzma"}

# The six invocations of the bench's cli-default workload, each with the
# modules it does not run and so must not load.
DEFAULT_INVOCATIONS = [
    (["table", "--format", "csv", "--verify"], {"posenergy.chart"}),
    (["fit", "--format", "csv"], {"configparser", "posenergy.baselines", "posenergy.chart"}),
    (["chart", "--format", "csv"], set()),
    (["chart", "--format", "svg"], set()),
    (["baseline", "--verify"], {"posenergy.chart"}),
    (["adjust-solana"], {"configparser", "posenergy.baselines", "posenergy.chart"}),
]


def loaded_after(code):
    """The modules a fresh ``python -S`` holds after running ``code`` with stdout at os.devnull.

    -S keeps the host's site imports out of the loaded set.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(posenergy.__file__).parents[1])}
    probe = (
        "import os, sys\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        f"{code}\n"
        "sys.stdout.close()\n"
        "sys.stdout = sys.__stdout__\n"
        "print(*sorted(sys.modules))"
    )
    command = [sys.executable, "-S", "-c", probe]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def cli_runs(*argvs):
    """Code that runs each command line through ``cli.main`` and exits at the first failure."""
    return "from posenergy import cli\n" + "".join(
        f"if cli.main({argv!r}): sys.exit({' '.join(argv)!r})\n" for argv in argvs
    )


def package_modules(loaded):
    return sorted(name for name in loaded if name.split(".")[0] == "posenergy")


def test_cli_import_loads_no_code_generation_modules():
    assert sorted(NOT_LOADED & loaded_after("import posenergy.cli")) == []
    # argparse's help formatter imports shutil, and with it bz2 and lzma, to
    # read the terminal width, so a run may load what a bare parser loads
    parser_only = loaded_after("import argparse\nargparse.ArgumentParser().add_argument('-x')")
    loaded = loaded_after(cli_runs(*(argv for argv, _ in DEFAULT_INVOCATIONS)))
    assert sorted((NOT_LOADED & loaded) - parser_only) == []


def test_package_import_loads_no_submodule():
    assert package_modules(loaded_after("import posenergy")) == ["posenergy"]


def test_cli_import_loads_no_command_code():
    loaded = loaded_after("import posenergy.cli")
    assert package_modules(loaded) == ["posenergy", "posenergy.cli"]
    assert sorted({"csv", "configparser", "datetime"} & loaded) == []


@pytest.mark.parametrize(
    "argv, not_run", DEFAULT_INVOCATIONS, ids=[" ".join(a) for a, _ in DEFAULT_INVOCATIONS]
)
def test_each_command_loads_only_what_it_runs(argv, not_run):
    loaded = loaded_after(cli_runs(argv))
    assert {"posenergy.ingestion", "posenergy.report"} <= loaded  # the command ran
    assert sorted(not_run & loaded) == []
