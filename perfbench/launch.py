"""Run one ``msss`` CLI command in this fresh interpreter, as the installed
``msss`` script would.

    python3 perfbench/launch.py <msss arguments...>

The package is imported from ``src/`` of the checkout that holds this file.
When PERFBENCH_SPANS names a file, every public msss function is traced
and the spans are written there when the command returns.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

spans_path = os.environ.get("PERFBENCH_SPANS")
if not spans_path:
    from msss.cli import main

    sys.exit(main(sys.argv[1:]))

from tracing import Tracer  # noqa: E402  (this file's directory is sys.path[0])

tracer = Tracer()
tracer.install()
import msss.cli  # noqa: E402

try:
    code = msss.cli.main(sys.argv[1:])
finally:
    tracer.dump(spans_path)
sys.exit(code)
