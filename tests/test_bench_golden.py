"""The benchmark's own jobs, replayed in tier-1: a change that moves the
output bytes of any job of the arakelov_degrees, bloch_sweep or dilog_plane
workload fails here, not only in a benchmark run. bench/golden is read,
never written."""

import hashlib
import importlib
import io
import json
from pathlib import Path

import mpmath
import pytest

import arithreg.relations
from arithreg.cli import run_job
from test_cli import count_calls

BENCH = Path(__file__).resolve().parents[1] / "bench"
DILOG_STEP = 1  # every dilog_plane job: all 5113 replay in about 6 s


def _bench_universe(monkeypatch, workload):
    """(workloads module, the workload's job universe, its golden digests)."""
    pytest.importorskip("sympy")  # bench/certify.py certifies the fields
    golden = json.loads((BENCH / "golden" / f"{workload}.json").read_text())
    # the digests are of one mpmath backend's output; another rounds differently
    assert mpmath.libmp.BACKEND == golden["env"]["mpmath_backend"], (
        f"golden digests were recorded under the mpmath {golden['env']['mpmath_backend']} "
        f"backend, this is {mpmath.libmp.BACKEND} (set MPMATH_NOGMPY=1)")
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    certify = importlib.import_module("certify")
    certified = certify.certify_all(workloads.candidate_fields(workload))
    return workloads, workloads.universe(workload, certified), golden


def _replay(workloads, jobs, golden, capsys):
    for job, meta in jobs:
        out = io.StringIO()
        rc = run_job(job, out=out)
        where = (f"degree {len(meta['poly']) - 1}" if "poly" in meta
                 else f"{job['precision']} digits")
        label = (f"{job['command']} {json.dumps(job['payload'])[:80]} on "
                 f"{where}: {capsys.readouterr().err}")
        assert rc == meta["expect_rc"], label
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        assert digest == golden["stdout_sha256"][workloads.job_key(job)], (
            f"{label}; golden digests were recorded under mpmath {golden['env']['mpmath']}, "
            f"this is mpmath {mpmath.__version__}")


def test_arakelov_degrees_universe_matches_golden(monkeypatch, capsys):
    """Every job the arakelov_degrees workload can draw, of every kind at
    every degree from 2 to 24, the failing one included, against its
    recorded digest."""
    workloads, universe, golden = _bench_universe(monkeypatch, "arakelov_degrees")
    assert len(universe) == golden["jobs"]
    assert {len(meta["poly"]) - 1 for _, meta in universe} == set(workloads.ARAKELOV_DEGREES)
    assert [meta.get("expect_err") for _, meta in universe if meta["expect_rc"]] == ["error[domain]"]
    _replay(workloads, universe, golden, capsys)


def test_bloch_sweep_universe_matches_golden(monkeypatch, capsys):
    """Every bloch-check and regulator job the bloch_sweep workload can
    draw, the failing ones included, against its recorded digest. Every
    relation lattice among them is found and proved from double columns:
    none falls back to the working-precision columns."""
    workloads, universe, golden = _bench_universe(monkeypatch, "bloch_sweep")
    assert len(universe) == golden["jobs"]
    calls = {"_float_columns": 0, "_embedding_columns": 0}
    for name in calls:
        count_calls(monkeypatch, calls, arithreg.relations, name)
    _replay(workloads, universe, golden, capsys)
    assert calls["_float_columns"] > 0
    assert calls["_embedding_columns"] == 0


def test_dilog_plane_sample_matches_golden(monkeypatch, capsys):
    """Every DILOG_STEP-th dilog_plane job in universe order: every region
    at every precision, and the schema-error job."""
    workloads, universe, golden = _bench_universe(monkeypatch, "dilog_plane")
    assert len(universe) == golden["jobs"]
    jobs = universe[::DILOG_STEP]
    assert ({(meta["region"], job["precision"]) for job, meta in jobs if meta["expect_rc"] == 0}
            == {(r, p) for r in workloads.DILOG_REGIONS for p in workloads.DILOG_PRECISIONS})
    assert [meta.get("expect_err") for _, meta in jobs if meta["expect_rc"]] == ["error[schema]"]
    _replay(workloads, jobs, golden, capsys)
