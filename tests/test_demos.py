"""The demos run to their closing line, the README quickstart and CLI
session run, and every test that the README's claims table names exists."""

import ast
import functools
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from msss import cli

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


def test_readme_cli_session_runs(tmp_path, monkeypatch, capsys):
    # the sh block under "## CLI session", run as written: every command exits
    # 0 and prints exactly the lines its "# ->" comment shows
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI session\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    steps = []  # (argv, file stdout is redirected to or "", expected stdout lines)
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("msss "):
            command, _, target = line.partition(" > ")
            steps.append((shlex.split(command)[1:], target.strip(), []))
        elif line.startswith(("# -> ", "#    ")):
            steps[-1][2].append(line[5:])
    monkeypatch.chdir(tmp_path)
    for argv, target, expected in steps:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if target:
            (tmp_path / target).write_text(out)
        if expected:
            assert out.splitlines() == expected, argv
    assert any(expected for _, _, expected in steps)


@functools.cache  # each demo is started once, however many tests read its run
def _run_demo(demo):
    return subprocess.run(
        [sys.executable, "-B", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=_ENV, timeout=60,
    )


def test_every_test_the_claims_table_names_exists():
    # found with ast, so no test module is imported, and a deleted or
    # renamed test fails here, not in a stale row
    readme = (ROOT / "README.md").read_text()
    table = readme.split("\n## Claims of the paper\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| ")][2:]
    assert len(rows) == 7
    for row in rows:
        named = re.findall(r"`(tests/\w+\.py)::([\w:]+)`", row)
        assert named, row
        for path, name in named:
            scope = ast.parse((ROOT / path).read_text()).body
            for part in name.split("::"):
                defs = {node.name: node.body for node in scope
                        if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
                assert part in defs, f"{path}::{name}"
                scope = defs[part]
