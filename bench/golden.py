"""Record the golden stdout digests of every job a workload can generate.

    python3 bench/golden.py --workload dilog_plane

Runs each job of the workload's finite universe once, in-process through
arithreg.cli.run_job, checks its exit code and output with the mpmath
oracles, and writes bench/golden/<workload>.json: the sha256 prefix of each
job's stdout keyed by job_key(job), plus the interpreter and mpmath backend
the digests belong to. Re-record only when a change is meant to alter
output bytes, and say so in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import oracles
import workloads
from certify import certify_all
from worker import _import_library, _run_one

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    args = p.parse_args(argv)

    cli = _import_library(str(BENCH.parent))
    import mpmath
    certified = certify_all(workloads.candidate_fields(args.workload))
    jobs = workloads.universe(args.workload, certified)
    digests, problems = {}, []
    start = time.perf_counter()
    for i, (job, meta) in enumerate(jobs):
        rc, stdout, stderr, _ = _run_one(cli, job)
        problem = (oracles.check_exit(meta, rc, stdout, stderr)
                   or oracles.check(job, meta, stdout))
        if problem:
            problems.append(f"{job['command']} {json.dumps(job['payload'])[:80]}: {problem}")
        digests[workloads.job_key(job)] = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        if i % 100 == 99:
            print(f"{i + 1}/{len(jobs)} jobs, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    record = {
        "env": {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND},
        "jobs": len(digests),
        "stdout_sha256": dict(sorted(digests.items())),
    }
    out = BENCH / "golden" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
