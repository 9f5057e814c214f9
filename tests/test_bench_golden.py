"""The benchmark's own ideal jobs, replayed in tier-1: a change that moves
the output bytes of a degree or height job of the arakelov_degrees workload
fails here, not only in a benchmark run. bench/golden is read, never
written."""

import hashlib
import importlib
import io
import json
from pathlib import Path

import pytest

from arithreg.cli import run_job

BENCH = Path(__file__).resolve().parents[1] / "bench"
IDEAL_KINDS = ("degree", "height1", "height2")
MAX_DEGREE = 8


def test_arakelov_ideal_jobs_match_golden(monkeypatch, capsys):
    pytest.importorskip("sympy")  # bench/certify.py certifies the fields
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    certify = importlib.import_module("certify")
    certified = certify.certify_all(workloads.candidate_fields("arakelov_degrees"))
    golden = json.loads((BENCH / "golden" / "arakelov_degrees.json").read_text())
    jobs = [(job, meta) for job, meta in workloads.universe("arakelov_degrees", certified)
            if meta["kind"] in IDEAL_KINDS and len(meta["poly"]) - 1 <= MAX_DEGREE]
    degrees = {d for d in workloads.ARAKELOV_DEGREES if d <= MAX_DEGREE}
    assert {len(meta["poly"]) - 1 for _, meta in jobs} == degrees
    assert {meta["kind"] for _, meta in jobs} == set(IDEAL_KINDS)
    for job, meta in jobs:
        out = io.StringIO()
        rc = run_job(job, out=out)
        label = f"{job['command']} on degree {len(meta['poly']) - 1}: {capsys.readouterr().err}"
        assert rc == meta["expect_rc"], label
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        assert digest == golden["stdout_sha256"][workloads.job_key(job)], label
