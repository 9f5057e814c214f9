"""Checks for which CI installs no tool. The workflow runs some tests a second
time under the gmpy backend, selected by name with pytest -k. A term that
names no test selects nothing without an error, so a renamed class would
drop out of that step unseen. The workflow is read with regular
expressions: CI installs no YAML parser. CI installs no linter either, so
an import that no code reads is caught here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SOURCES = sorted(p for p in (ROOT / "src" / "arithreg").glob("*.py") if p.name != "__init__.py")


def _gmpy_step_runs():
    """(test file, -k expression) for each pytest run of the gmpy step."""
    text = WORKFLOW.read_text()
    step = re.search(r"- name: [^\n]*gmpy[^\n]*\n(.*?)(?=\n\s*- name:|\Z)", text, re.S)
    assert step, "the workflow has no gmpy step"
    return re.findall(r'pytest\b[^\n]*?\s(tests/\w+\.py)\s+-k\s+"([^"]+)"', step.group(1))


def test_gmpy_step_selects_tests_by_names_that_exist():
    runs = _gmpy_step_runs()
    assert runs, "the gmpy step runs no pytest -k selection"
    for path, expression in runs:
        source = (ROOT / path).read_text()
        names = re.findall(r"^\s*(?:class (Test\w*)|def (test_\w*))", source, re.M)
        names = [(cls or func).lower() for cls, func in names]
        terms = [t for t in re.split(r"[\s()]+", expression) if t and t not in ("or", "and", "not")]
        assert terms, path
        for term in terms:
            assert any(term.lower() in name for name in names), \
                f"-k term {term!r} of the gmpy step names no test in {path}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_src_imports_are_used(path):
    """Every name a module imports, `annotations` of __future__ aside, is
    read somewhere in that module."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported.items()
              if name != "annotations" and name not in read}
    assert not unused, f"{path.name} imports names it never reads: {unused}"
