"""What ``import msss.cli`` loads.

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
"""

import os
import subprocess
import sys

from conftest import SRC

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
