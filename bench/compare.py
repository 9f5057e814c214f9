"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE.txt NEW.txt

Each file holds the stdout of any number of ``bench/run.py`` runs, appended.
For every workload and metric the script prints each side's median and
quartile spread (as a share of the median), the change of the median, and
whether the change stays within the bound fixed in BENCHMARK.json. It
refuses to pair runs made under a different Python version or mpmath
backend, since either changes every number. When a file holds both traced
and untraced runs of a workload, it also prints the tracing overhead:
untraced jobs/s over traced jobs/s.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reports(path: str) -> list:
    return [json.loads(line[len("report "):]) for line in Path(path).read_text().splitlines()
            if line.startswith("report ")]


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def _by_workload(reports, trace):
    out = defaultdict(lambda: defaultdict(list))
    for rep in reports:
        if rep["trace"] == trace:
            for name, rec in rep["summary"].items():
                out[rep["workload"]][name].append(rec["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [_reports(p) for p in argv]
    stamps = {(r["env"]["python"], r["env"]["mpmath_backend"]) for side in sides for r in side}
    if len(stamps) > 1:
        print(f"refusing to compare runs from different environments: {sorted(stamps)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (_by_workload(side, 0) for side in sides)
    print(f"{'workload':18s} {'metric':12s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'change':>8s}  verdict")
    for workload in sorted(set(base) | set(new)):
        for name, m in bounds.items():
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            (ma, sa), (mb, sb) = _stats(a), _stats(b)
            change = (mb - ma) / ma
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                verdict = "worse than bound"
            elif max(sa, sb) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"{workload:18s} {name:12s} {ma:12.6g} {sa:7.1%} {mb:12.6g} {sb:7.1%} "
                  f"{change:+8.1%}  {verdict}")
    for label, reports in zip(("base", "new"), sides):
        plain, traced = _by_workload(reports, 0), _by_workload(reports, 1)
        for workload in sorted(set(plain) & set(traced)):
            ratio = (statistics.median(plain[workload]["jobs_per_s"])
                     / statistics.median(traced[workload]["jobs_per_s"]))
            print(f"{label}: {workload} tracing overhead: untraced/traced jobs/s = {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
