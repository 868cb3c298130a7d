"""The demos run to their closing line, and the README quickstart runs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}


@pytest.mark.parametrize(
    "demo, closing",
    [
        ("toy_walkthrough.py", r"recovered the shared secret, verified against the public tag"),
        ("dynamic_updates.py", r"  set 1: recovered \d+, tag ok"),
    ],
)
def test_demo_runs_to_its_closing_line(demo, closing):
    result = _run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(closing, result.stdout.splitlines()[-1])


def test_toy_walkthrough_prints_the_worked_package():
    # the scripted draw is h0 = 103 itself, and s0 = 7 is derived from it
    result = _run_demo("toy_walkthrough.py")
    assert result.returncode == 0, result.stderr
    assert "dealer publishes ps0 = 115, h0 = 103, f(1) = 105" in result.stdout.splitlines()


def test_readme_quickstart_runs():
    # the first python block under "## Library quickstart", run as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True, text=True, env=_ENV, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _run_demo(demo):
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=_ENV, timeout=60,
    )
