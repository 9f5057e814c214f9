"""The CI workflow runs some tests a second time under the gmpy backend,
selected by name with pytest -k. A term that names no test selects nothing
without an error, so a renamed class would drop out of that step unseen.
The workflow is read with regular expressions: CI installs no YAML parser."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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
