"""One benchmark workload in a fresh interpreter, on one thread.

Started by run.py, once per set-up probe and once for the timed sweep:

    python3 bench/worker.py --root ROOT --workload W --seed N --seconds S \
        --mode setup|run --trace 0|1 --spawned T

T is the parent's ``time.monotonic()`` just before it started this process,
so set-up time counts interpreter start, the import of arithreg, input
generation and validation, and one untimed warm-up job. The certified-field
table arrives as JSON on stdin; one JSON result goes to stdout.

The timed sweep is a closed loop with a single client: the next job starts
only after ``arithreg.cli.run_job`` (the in-process form of
``arithreg --job -``) has returned the previous one. Whole rounds run until
the time is up and at least MIN_JOBS jobs have run, so every run covers the
same mix of jobs.

Host speed. On a shared host the same run can take 20-40 % longer when
neighbours load the machine, and that drift is slower than a run, so no
statistic over one run removes it. Between jobs, at most every
PROBE_EVERY_S, the worker times a fixed piece of Fraction and mpmath
arithmetic that does not touch arithreg (the speed probe). Each job's wall
time is divided by the host's slowdown around it (see _slowdown), which
gives its time in reference seconds. Raw wall times are reported alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import workloads

MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
# probe time on the idle shared 2-vCPU virtual machine the benchmark was tuned on
# (Python 3.11, mpmath 1.3 pure-Python backend); only sets the unit
PROBE_REF_S = 0.0024


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    return p.parse_args(argv)


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import arithreg.cli
    if not os.path.abspath(arithreg.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"arithreg was imported from {arithreg.cli.__file__}, not {src}")
    return arithreg.cli


def _probe_s() -> float:
    """Time of a fixed piece of exact and multiprecision arithmetic: the
    host's current speed, independent of arithreg."""
    from mpmath import mp, mpf
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    with mp.workdps(60):
        x = mpf(1) / 3
        for _ in range(200):
            x = mp.sqrt(x * x + mpf(1) / 7)
    return time.perf_counter() - start


def _slowdown(probes, first: int, start: float, end: float) -> float:
    """Host slowdown around one job: the median probe time over the job and
    PROBE_WINDOW_S either side of it (at least the probes just before and
    after the job), over PROBE_REF_S."""
    lo, hi = first, first + 1
    while lo > 0 and probes[lo - 1][0] >= start - PROBE_WINDOW_S:
        lo -= 1
    while hi + 1 < len(probes) and probes[hi + 1][0] <= end + PROBE_WINDOW_S:
        hi += 1
    return statistics.median(p for _, p in probes[lo:hi + 1]) / PROBE_REF_S


def _validate(rounds, certified: dict, commands) -> None:
    """Reject a plan with an uncertified field or a malformed job record."""
    for jobs in rounds:
        for job, meta, _ in jobs:
            if job.get("command") not in commands:
                raise SystemExit(f"generated job has unknown command {job.get('command')!r}")
            if not isinstance(job.get("precision"), int) or job["precision"] < 16:
                raise SystemExit("generated job has an invalid precision")
            if "field" in job and workloads.poly_key(job["field"]["poly"]) not in certified:
                raise SystemExit(f"generated job uses uncertified field {job['field']['poly']}")
            if meta.get("expect_rc") not in (0, 1, 2, 3):
                raise SystemExit("generated job has no expected exit code")


def _run_one(cli, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run_job(job, out)
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc = -1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def main(argv=None) -> int:
    args = _args(sys.argv[1:] if argv is None else argv)
    certified = json.load(sys.stdin)
    cli = _import_library(args.root)

    rounds = [[(job, meta, workloads.job_key(job)) for job, meta in jobs]
              for jobs in workloads.plan(args.workload, args.seed, certified)]
    _validate(rounds, certified, cli.COMMANDS)
    rc, _, err, _ = _run_one(cli, workloads.warmup_job(args.workload))
    if rc != 0:
        raise SystemExit(f"warm-up job failed with exit code {rc}: {err.strip()}")
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        slowdown = statistics.median(_probe_s() for _ in range(5)) / PROBE_REF_S
        json.dump({"setup_s": setup_s, "setup_slowdown": slowdown}, sys.stdout)
        return 0

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

    latencies, starts, before, results, outputs, tags = [], [], [], [], {}, {}
    probes = [(time.perf_counter(), _probe_s())]
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while True:
        for job, meta, key in rounds[index % len(rounds)]:
            if recorder is not None:
                recorder.job = len(latencies)
                tags[recorder.job] = meta.get("region")
            before.append(len(probes) - 1)
            starts.append(time.perf_counter())
            rc, stdout, stderr, elapsed = _run_one(cli, job)
            latencies.append(elapsed)
            results.append((key, rc, hashlib.sha256(stdout.encode()).hexdigest()[:16],
                            stderr[:200]))
            outputs.setdefault(key, stdout)
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), _probe_s()))
        index += 1
        if time.perf_counter() >= deadline and len(latencies) >= MIN_JOBS:
            break
    probes.append((time.perf_counter(), _probe_s()))
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.uninstall()

    probe_s = [p for _, p in probes]
    slowdown = [_slowdown(probes, first, start, start + lat)
                for first, (start, lat) in zip(before, zip(starts, latencies))]
    ref_latencies = [lat / f for lat, f in zip(latencies, slowdown)]

    import mpmath
    report = {
        "setup_s": setup_s,
        "setup_slowdown": _slowdown(probes, 0, start, start),
        "wall_s": wall_s,
        "latencies": latencies,
        "ref_latencies": ref_latencies,
        "rounds": index,
        "probe_s": probe_s,
        "results": results,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND},
    }
    if recorder is not None:
        report["layers"] = recorder.summary(tags, slowdown)
        out_dir = os.path.join(args.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        report["spans_file"] = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        recorder.write(report["spans_file"])
        report["span_count"] = len(recorder.spans)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
