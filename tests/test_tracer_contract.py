"""What perfbench's tracer needs of msss.

``perfbench/tracing.py`` imports every module in its ``MODULES`` by name
and wraps each public function, and ``perfbench/layers.py`` counts some of
them by name. A renamed or deleted module or function breaks the traced
benchmark runs; this check shows it on every Python, in a fresh
interpreter with ``perfbench`` and ``src`` on ``sys.path``. It only reads
``perfbench``: ``-B`` keeps the interpreter from writing bytecode there.
"""

import subprocess
import sys

from conftest import SRC

SNIPPET = """\
import sys

sys.path[:0] = [{perfbench!r}, {src!r}]

import tracing

import msss.combiner
import msss.linepoly

original = msss.linepoly.interpolate_line
tracer = tracing.Tracer()
tracer.install()
assert msss.combiner.interpolate_line is not original
assert msss.combiner.interpolate_line.__wrapped__ is original
tracer.uninstall()
assert msss.combiner.interpolate_line is original
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    code = SNIPPET.format(perfbench=str(SRC.parent / "perfbench"), src=str(SRC))
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
