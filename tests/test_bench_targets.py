"""The traced benchmark (bench/spans.py) wraps library functions by name;
a rename in arithreg must fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for metric, (module_name, path) in spans.TARGETS.items():
        assert module_name.startswith("arithreg."), metric
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        # the recorder replaces class attributes through the class __dict__
        raw = vars(owner).get(attr)
        assert raw is not None, f"{metric}: {module_name}.{path} is missing"
        assert callable(getattr(owner, attr)), f"{metric}: {module_name}.{path}"
        assert metric.split(".")[0] == module_name.split(".")[1], metric
