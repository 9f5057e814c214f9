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


def _bench_targets():
    """The attribute names bench/spans.py TARGETS pins, read from its source:
    importing it needs bench/ on the path."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return {name for _, path in ast.literal_eval(targets).values() for name in path.split(".")}


def test_src_definitions_are_read():
    """Every module-level function or class of src/arithreg, and every
    single-underscore method, is read somewhere in src/, exported by
    arithreg.__all__ or pinned by the bench span TARGETS; a definition that
    a removal left behind is none of these."""
    import arithreg

    paths = sorted((ROOT / "src" / "arithreg").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    kept = read | set(arithreg.__all__) | _bench_targets()
    defined = ast.FunctionDef, ast.ClassDef
    checked = []
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, defined):
                checked.append((path, node))
            if isinstance(node, ast.ClassDef):
                checked += [(path, m) for m in node.body if isinstance(m, defined)
                            and m.name.startswith("_") and not m.name.startswith("__")]
    unread = [f"{path.name}:{node.lineno} {node.name}" for path, node in checked
              if node.name not in kept]
    assert not unread, f"definitions nothing reads, exports or pins: {unread}"


def test_proof_mutants_name_text_and_tests_that_exist():
    """Each entry of tests/proof_mutants.py replaces a text that occurs
    exactly once in its file, and names a test that exists, so the list
    cannot rot unseen when the code it mutates is edited."""
    from proof_mutants import MUTANTS

    assert MUTANTS
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, (m.path, m.old)
        path, *names = m.test.split("::")
        source = (ROOT / path).read_text()
        kinds = ["class"] * (len(names) - 1) + ["def"]
        for kind, name in zip(kinds, names):
            assert re.search(rf"^\s*{kind} {name}\b", source, re.M), m.test
