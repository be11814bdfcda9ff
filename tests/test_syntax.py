"""Every Python file of the project parses as Python 3.10, the oldest
version that pyproject.toml's requires-python admits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for top in ("src", "tests", "perfbench")
    for path in (ROOT / top).rglob("*.py")
)


def test_sources_found():
    assert any(p.name == "families.py" for p in SOURCES)
    assert any(p.parent.name == "perfbench" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
