"""Checks on the project's files as text.

Every Python file parses as Python 3.10, the oldest version that
pyproject.toml's requires-python admits, and the README's CI commands are
the workflow's.
"""

import ast
import re
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


def readme_ci_commands() -> list[str]:
    """The lines of the README's sh block after "CI runs the suite"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text[text.index("CI runs the suite"):]
    block = after[after.index("```sh\n") + len("```sh\n"):]
    return block[:block.index("```")].splitlines()


def workflow_commands() -> list[str]:
    """The ``run:`` commands of the tier-1 workflow, one per line, read as
    text (a ``run: |`` block gives each of its lines)."""
    lines = (ROOT / ".github/workflows/tier1.yml").read_text(
        encoding="utf-8").splitlines()
    commands = []
    for i, line in enumerate(lines):
        run = re.match(r"( *)(?:- )?run: *(.*)$", line)
        if run is None:
            continue
        indent, value = run.groups()
        if value != "|":
            commands.append(value)
            continue
        for body in lines[i + 1:]:
            if body.strip() and not body.startswith(indent + " "):
                break
            if body.strip():
                commands.append(body.strip())
    return commands


def test_readme_lists_the_ci_commands():
    install = 'python -m pip install ".[test]"'
    commands = workflow_commands()
    assert install in commands
    assert readme_ci_commands() == [c for c in commands if c != install]
