"""The demos run to their closing line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, closing",
    [
        ("toy_walkthrough.py", r"recovered the shared secret, verified against the public tag"),
        ("dynamic_updates.py", r"  set 1: recovered \d+, tag ok"),
    ],
)
def test_demo_runs_to_its_closing_line(demo, closing):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert re.fullmatch(closing, result.stdout.splitlines()[-1])
