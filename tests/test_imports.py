"""What ``import msss.cli`` loads, and how the package's modules import
each other.

Every msss command is a fresh process, so each module the CLI imports is
paid again on every protocol step. ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``dis``) and ``msss.simulate`` are never needed by
a command other than ``simulate``. ``ctypes.util`` is never loaded either:
its ``find_library`` runs ``ldconfig`` or a compiler, and ``msss.modexp``
finds OpenSSL through ``_hashlib`` instead. Nor is ``threading``, which
costs milliseconds to import: ``msss.modexp`` keeps its per-thread state in
a ``_thread._local``.

The check runs ``SNIPPET`` in a fresh interpreter without ``site``, as
``PYTHONPATH=src python -S -c "$SNIPPET"`` would.

The layering checks read the source with ``ast`` and start no process. The
records and their codec (``bulletin``) sit below the protocol roles that
use them, no import hides under ``TYPE_CHECKING``, and no two modules import
each other, directly or through others. An import inside a function counts.
"""

import ast
import graphlib
import os
import subprocess
import sys

import pytest

from conftest import SRC

ROLES = {"dealer", "participant", "combiner", "simulate", "cli"}
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in (SRC / "msss").glob("*.py")}


def _imported(tree) -> set[str]:
    """The msss modules that ``tree`` imports anywhere, each by a relative
    import as the package writes them all; ``__init__`` for a name of the
    package that is not a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .x import y
                found.add(node.module)
            else:  # from . import x
                found.update(a.name if a.name in TREES else "__init__" for a in node.names)
    return found


GRAPH = {name: _imported(tree) for name, tree in TREES.items()}

SNIPPET = """\
import sys

import msss.cli

never = ("dataclasses", "inspect", "msss.simulate", "ctypes.util", "threading")
loaded = [m for m in never if m in sys.modules]
assert not loaded, f"import msss.cli loaded {loaded}"

import msss
from msss import *

assert "msss.simulate" in sys.modules
assert run_simulation is msss.run_simulation is msss.simulate.run_simulation
assert SimulationConfig is msss.SimulationConfig is msss.simulate.SimulationConfig
assert all(hasattr(msss, name) for name in msss.__all__)
try:
    msss.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("msss.no_such_name resolved")
print("ok")
"""


def test_cli_imports_neither_dataclasses_nor_simulate():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", SNIPPET], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_bulletin_imports_no_protocol_role():
    assert not GRAPH["bulletin"] & ROLES


def test_no_module_imports_under_type_checking():
    guarded = [
        name
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
    ]
    assert not guarded


def test_the_package_import_graph_has_no_cycle():
    try:
        tuple(graphlib.TopologicalSorter(GRAPH).static_order())
    except graphlib.CycleError as exc:
        pytest.fail("import cycle " + " -> ".join(exc.args[1]))
