"""arithreg benchmark: closed-loop sweeps of JSON jobs through arithreg.cli.run_job.

    python3 bench/run.py --workload bloch_sweep --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):
  bloch_sweep       bloch-check and regulator jobs over x^m - x + 1
  dilog_plane       dilog jobs at points of five regions, 30-200 digits
  arakelov_degrees  field-info, unit-reg, degree, height and kranks, degree 2-24

The seed picks the inputs; the library only sees the generated job records.
Every field is certified with sympy first (bench/certify.py). With --trace 0
the run starts SETUP_PROBES fresh interpreters that only set up, then one
worker that sets up and sweeps for --seconds; it prints jobs/s, median and
90th-percentile job latency, set-up time and peak RSS. With --trace 1 a
single traced worker reports per-layer calls, busy and self time instead.
After the sweep every job's exit code and stdout bytes are compared with the
golden digests in bench/golden, and every distinct output goes through the
mpmath oracles in bench/oracles.py. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import PROBE_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4  # set-up-only interpreters per untraced run; the worker adds one more
WORKER_TIMEOUT_S = 150


def _spawn(workload, seed, seconds, mode, trace, certified) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--trace", str(trace), "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, input=json.dumps(certified), capture_output=True,
                          text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _load_golden(workload: str) -> dict:
    path = BENCH / "golden" / f"{workload}.json"
    if not path.is_file():
        raise SystemExit(f"no golden outputs at {path}; record them with bench/golden.py")
    return json.loads(path.read_text())


def _environment(seed: int, report_env: dict) -> dict:
    sources = sorted((ROOT / "src" / "arithreg").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return dict(report_env, nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                seed=seed, git_commit=commit, src_sha256=digest.hexdigest()[:16])


def _verify(report: dict, by_key: dict, golden: dict) -> list:
    """Failures among the swept jobs: wrong exit code or stderr class, stdout
    bytes that differ from the golden digest, or an oracle that disagrees.

    Golden outputs passed every oracle when they were recorded, so the
    oracles run here only on outputs whose bytes differ from golden, to say
    whether the new bytes are also numerically wrong.
    """
    import oracles
    digests = golden["stdout_sha256"]
    verdicts, failures = {}, []
    for key, rc, digest, stderr in report["results"]:
        if (key, rc, digest) not in verdicts:
            job, meta = by_key[key]
            problem = oracles.check_exit(meta, rc, report["outputs"][key], stderr)
            if problem is None and digests.get(key) != digest:
                problem = (f"stdout digest {digest} differs from golden {digests.get(key)}; "
                           f"oracle: {oracles.check(job, meta, report['outputs'][key]) or 'agrees'}")
            verdicts[key, rc, digest] = problem and f"{job['command']} {key}: {problem}"
        if verdicts[key, rc, digest]:
            failures.append(verdicts[key, rc, digest])
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "arithreg" / "cli.py").is_file():
        print(f"error: no arithreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import mpmath
    from certify import certify_all

    golden = _load_golden(args.workload)
    if golden["env"]["mpmath_backend"] != mpmath.libmp.BACKEND:
        print(f"error: golden outputs were recorded with mpmath backend "
              f"{golden['env']['mpmath_backend']}, this is {mpmath.libmp.BACKEND}",
              file=sys.stderr)
        return 2
    certified = certify_all(workloads.candidate_fields(args.workload))

    setups = []
    if not args.trace:
        setups = [_spawn(args.workload, args.seed, args.seconds, "setup", 0, certified)
                  for _ in range(SETUP_PROBES)]
    report = _spawn(args.workload, args.seed, args.seconds, "run", args.trace, certified)
    setups.append(report)
    setup_ref_s = [s["setup_s"] / s["setup_slowdown"] for s in setups]

    by_key = {workloads.job_key(job): (job, meta)
              for jobs in workloads.plan(args.workload, args.seed, certified)
              for job, meta in jobs}
    failures = _verify(report, by_key, golden)

    lat = report["ref_latencies"]
    attempted = len(lat)
    p90 = statistics.quantiles(lat, n=10)[8]
    summary = {
        "jobs_per_s": (attempted / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (p90, "s"),
        "failed_ratio": (len(failures) / attempted, "fraction"),
        "setup_s": (statistics.median(setup_ref_s), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    raw = report["latencies"]
    info = {
        "workload": args.workload, "trace": args.trace, "jobs": attempted,
        "rounds": report["rounds"],
        "p90_samples_beyond": sum(1 for x in lat if x > p90),
        "setup_ref_samples_s": setup_ref_s,
        "raw": {"wall_s": report["wall_s"], "jobs_per_s": attempted / report["wall_s"],
                "job_p50_s": statistics.median(raw),
                "job_p90_s": statistics.quantiles(raw, n=10)[8],
                "setup_s": statistics.median(s["setup_s"] for s in setups)},
        "host_slowdown": statistics.median(report["probe_s"]) / PROBE_REF_S,
        "env": _environment(args.seed, report["env"]),
        "failures": failures[:10],
    }
    if args.trace:
        metrics = dict(report["layers"], **{"trace.jobs_per_s": summary["jobs_per_s"]})
        info["spans_file"] = report["spans_file"]
        info["span_count"] = report["span_count"]
    else:
        metrics = {k: v for k, v in summary.items() if k != "failed_ratio"}

    for name, (value, unit) in summary.items():
        if not args.trace or name in ("jobs_per_s", "failed_ratio"):
            print(f"{args.workload:18s} {name:14s} {value:12.6g} {unit}")
    print(f"{args.workload:18s} {'p90 sample':14s} {attempted:12d} jobs, "
          f"{info['p90_samples_beyond']} beyond p90")
    for line in failures[:10]:
        print(f"FAILED {line}")
    info["summary"] = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    print("report " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
