"""Source-level rules that hold for the whole package."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SOURCES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "src" / "ballharmonics").glob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; runtime invariants must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"


def test_sources_found():
    assert len(SOURCES) > 10


def test_identity_criteria_pass_under_optimize():
    # `python -O` strips assert statements; criteria 03, 04 and 09 must
    # still pass, and fast enough to run on every test run
    script = (
        "from ballharmonics import suite\n"
        "print(__debug__)\n"
        "for name in ('check_pohozaev', 'check_green', 'check_minimiser_bound'):\n"
        "    print(name, getattr(suite, name)(7).passed)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "False",
        "check_pohozaev True",
        "check_green True",
        "check_minimiser_bound True",
        "",
    ]
