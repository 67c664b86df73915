"""Source-level rules that hold for the whole package."""

import ast
import pathlib

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
