"""Seeded job generators for the benchmark workloads.

Pure Python: this module imports neither arithreg nor sympy, so the parent
process, the workers and the golden-output recorder all build identical job
lists from the same seed.

Every workload draws its jobs from a finite universe (fixed fields, fixed
candidate sets, a fixed grid of dilogarithm points), so the golden stdout
digests in ``bench/golden`` cover every job any seed can produce. A run is
a sequence of rounds; every round has the same composition (job kinds by
size class), and the seed only picks the concrete field, candidates or point
inside each slot. Whole rounds keep the work mix, and with it jobs/s and the
latency quantiles, the same from seed to seed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

WORKLOADS = ("bloch_sweep", "dilog_plane", "arakelov_degrees")
# rounds generated per run; the timed loop cycles through them if it runs out
PLAN_ROUNDS = {"bloch_sweep": 32, "dilog_plane": 48, "arakelov_degrees": 32}

# ---------------------------------------------------------------------------
# shared helpers


def job_key(job: dict) -> str:
    """Stable identifier of a job record (keys the golden digests)."""
    text = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _job(command: str, payload: dict, precision: int = 50, field=None) -> dict:
    job = {"schema": 1, "command": command, "precision": precision,
           "output": "json", "payload": payload}
    if field is not None:
        job["field"] = {"poly": list(field)}
    return job


def poly_key(poly) -> str:
    return ",".join(str(c) for c in poly)


def _poly_eval(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _mulmod(a, b, poly):
    """a * b mod the monic poly; all lists ascending with integer entries."""
    n = len(poly) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            for j in range(n + 1):
                out[k - n + j] -= c * poly[j]
    return (out + [0] * n)[:n]


def _principal_rows(a, poly):
    """Power-basis rows of a * x^i, i < n: a Z-basis of the ideal (a) when
    the power basis is the ring of integers."""
    n = len(poly) - 1
    rows, xi = [], [1] + [0] * (n - 1)
    for _ in range(n):
        rows.append([str(c) for c in _mulmod(a, xi, poly)])
        xi = _mulmod(xi, [0, 1], poly)
    return rows


def _draw(rng: random.Random, options: list):
    return options[rng.randrange(len(options))]


# ---------------------------------------------------------------------------
# bloch_sweep: the paper's family lambda^(n+1) = lambda - 1


def lam_poly(m: int) -> tuple:
    """x^m - x + 1, ascending coefficients."""
    return tuple([1, -1] + [0] * (m - 2) + [1])


ORBIT = ("x", "x^-1", "1-x", "(1-x)^-1", "(x-1)/x", "x/(x-1)")
# x^8 - x + 1 is divisible by x^2 - x + 1; certification drops it, so the
# large class is x^7 - x + 1 alone. Fixed degrees per slot keep the cost of
# a round the same from seed to seed.
BLOCH_CLASSES = {"m3": (3,), "m4": (4,), "m5": (5,), "m6": (6,), "large": (7, 8)}
# one round: (size class, job kinds sharing one field of that class).
# cKpP is a bloch-check job with K candidates that touch P of the orbit's
# three complementary pairs {l, 1-l}; the relation lattice then has 2P + 1
# generators, which sets the cost of the job far more than K does.
BLOCH_ROUND = (
    ("m3", ("c2p1", "c2p2", "c3p2", "reg")),
    ("m4", ("c2p1", "c4p2", "reg", "fail")),
    ("m3", ("c3p3",)),
    ("m5", ("c2p1",)),
    ("m6", ("c2p2",)),
    ("large", ("reg",)),
)
ORBIT_PAIRS = ({"x", "1-x"}, {"x^-1", "(x-1)/x"}, {"(1-x)^-1", "x/(x-1)"})
BLOCH_WARMUP = (-1, -1, 0, 1)  # x^3 - x - 1, outside the family


def _bloch_field_jobs(m: int) -> dict:
    poly = lam_poly(m)
    kinds = {}
    for size in (2, 3, 4):
        for c in combinations(ORBIT, size):
            kind = f"c{size}p{sum(1 for pair in ORBIT_PAIRS if pair & set(c))}"
            kinds.setdefault(kind, []).append(
                (_job("bloch-check", {"candidates": list(c)}, field=poly),
                 {"kind": kind, "poly": list(poly), "expect_rc": 0}))
    n = m - 1
    kinds["reg"] = [(
        _job("regulator", {"bloch": {"support": ["x", "(1-x)^-1"],
                                     "multiplicities": [n, 1]}}, field=poly),
        {"kind": "reg", "poly": list(poly), "n": n, "expect_rc": 0})]
    kinds["fail"] = [(
        _job("bloch-check", {"candidates": ["x", f"{k}*x"]}, field=poly),
        {"kind": "fail", "poly": list(poly), "expect_rc": 2,
         "expect_err": "error[domain]"}) for k in (2, 3)]
    return kinds


# ---------------------------------------------------------------------------
# dilog_plane: Li2 and D at seeded points of five regions


DILOG_REGIONS = ("disk", "wide", "ring", "fixed", "real")
DILOG_PRECISIONS = (30, 50, 100, 200)
DILOG_POINTS = 256  # grid points per region
DILOG_BANDS = 4  # orbit-modulus bands per region, one slot each per round
DILOG_STRIDE = 41  # odd, about 0.64 of a band: consecutive rounds spread out
_DYADIC = 1024  # coordinates are multiples of 1/1024: exact in any radix-2 parse


def _dyadic_str(k: int) -> str:
    """Exact decimal string of k / 1024."""
    q = Fraction(k, _DYADIC)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    frac = q - whole
    digits = ""
    while frac:
        frac *= 10
        d = frac.numerator // frac.denominator
        digits += str(d)
        frac -= d
    return f"{sign}{whole}" + (f".{digits}" if digits else "")


def _complex_str(re_k: int, im_k: int) -> str:
    re_s, im_s = _dyadic_str(re_k), _dyadic_str(im_k)
    sign = "" if im_s.startswith("-") else "+"
    return f"{re_s}{sign}{im_s}i"


def _region_point(region: str, rng: random.Random) -> str:
    while True:
        if region == "disk":
            r = 0.5 * math.sqrt(rng.random())
            z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        elif region == "wide":
            r = math.exp(rng.uniform(math.log(0.1), math.log(10)))
            z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        elif region == "ring":
            z = cmath.rect(rng.uniform(0.9, 1.1), rng.uniform(-math.pi, math.pi))
        elif region == "fixed":
            # distance uniform in [0, 0.06): the power series takes over from
            # the Bernoulli series at about 0.03, so both sides are sampled
            centre = cmath.rect(1.0, rng.choice((1, -1)) * math.pi / 3)
            z = centre + cmath.rect(rng.uniform(0, 0.06), rng.uniform(-math.pi, math.pi))
        else:  # real, including the cut z > 1
            k = rng.randrange(-10 * _DYADIC, 10 * _DYADIC)
            if k in (0, _DYADIC):
                continue
            return _dyadic_str(k)
        re_k, im_k = round(z.real * _DYADIC), round(z.imag * _DYADIC)
        if im_k == 0:
            continue
        w = complex(re_k, im_k) / _DYADIC
        inside = {"disk": abs(w) < 0.5, "wide": 0.1 < abs(w) < 10,
                  "ring": 0.9 < abs(w) < 1.1,
                  "fixed": min(abs(w - cmath.rect(1, s * math.pi / 3))
                               for s in (1, -1)) < 0.06}[region]
        if inside:
            return _complex_str(re_k, im_k)


def dilog_points(region: str) -> list:
    rng = random.Random(f"arithreg-bench-dilog-{region}")
    return [_region_point(region, rng) for _ in range(DILOG_POINTS)]


def _orbit_modulus(z: str) -> float:
    """Smallest |w| over the orbit of z under w -> 1/w and w -> 1 - w: the
    closer to 1, the slower every series for Li2 converges."""
    w = complex(z.replace("i", "j")) if z.endswith("i") else complex(float(z), 0)
    return min(abs(v) for v in (w, 1 / w, 1 - w, 1 / (1 - w), 1 - 1 / w, w / (w - 1)))


def _dilog_pool() -> dict:
    """Slots (region, band, precision). Each region's points are split into
    DILOG_BANDS bands of equal size by orbit modulus, so every round holds
    the same share of points whose cost depends on where the series switch
    sits."""
    pool = {}
    for region in DILOG_REGIONS:
        points = sorted(dilog_points(region), key=_orbit_modulus)
        size = len(points) // DILOG_BANDS
        for band in range(DILOG_BANDS):
            members = points[band * size:(band + 1) * size]
            for p in DILOG_PRECISIONS:
                pool[(region, band, p)] = [
                    (_job("dilog", {"z": z}, precision=p),
                     {"kind": "dilog", "region": region, "expect_rc": 0})
                    for z in members]
    pool["fail"] = [(_job("dilog", {}, precision=50),
                     {"kind": "fail", "region": "none", "expect_rc": 1,
                      "expect_err": "error[schema]"})]
    return pool


# ---------------------------------------------------------------------------
# arakelov_degrees: degrees, heights and ranks over fields of degree 2-24


ARAKELOV_DEGREES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 24)
# job kinds per degree in one round, fixed so that every round costs the
# same; heightN is a height job through the N-th power of the ideal. Degree
# 24 skips the ideal arithmetic (a height job there takes seconds) and runs
# three unit-reg jobs instead, which puts the 90th percentile in the middle
# of the cluster of ~0.3 s jobs rather than on its edge.
ARAKELOV_SCHEDULE = {d: ("info", "unit", "degree", f"height{1 if i % 2 else 2}", "kranks")
                     for i, d in enumerate(ARAKELOV_DEGREES)}
ARAKELOV_SCHEDULE[24] = ("info", "unit", "unit", "unit", "kranks")
ARAKELOV_FAIL_DEGREE = 6
ARAKELOV_WARMUP = (-2, 0, 0, 1)  # x^3 - 2, outside the pool


def arakelov_poly(d: int) -> tuple:
    """x^d - x - 1, ascending coefficients. One field per degree: other
    trinomials of the same degree cost up to a third more per job, which
    would make the cost of a round depend on the seed."""
    return tuple([-1, -1] + [0] * (d - 2) + [1])


def _arakelov_field_jobs(poly: tuple, r1: int) -> dict:
    d = len(poly) - 1
    rng = random.Random(f"arithreg-bench-arakelov-{poly_key(poly)}")
    base = {"poly": list(poly), "r1": r1}

    def job(kind, command, payload, **extra):
        return (_job(command, payload, field=poly),
                dict(base, kind=kind, expect_rc=0, **extra))

    units = ["x"] + [f"(x-{c})" if c > 0 else f"(x+{-c})"
                     for c in (1, -1, 2, -2) if abs(_poly_eval(poly, c)) == 1]
    unit_jobs = []
    for _ in range(3):
        factors = [f"{_draw(rng, units)}^{_draw(rng, (-2, -1, 1, 2))}"
                   for _ in range(3)]
        unit_jobs.append(job("unit", "unit-reg", {"element": "*".join(factors)}))
    # x + c with the smallest c >= 2 and |N(x + c)| = |f(-c)| > 1: a
    # non-unit that generates the principal ideal of the degree and height jobs
    c = next(c for c in range(2, 12) if abs(_poly_eval(poly, -c)) > 1)
    rows = _principal_rows([c, 1], poly)
    bundles = [{"ideal_basis": rows, "metric": [mu] * r1 + [nu] * (d - r1)}
               for mu, nu in (("1", "2"), ("3", "0.5"))]
    degree_jobs = [job("degree", "degree", {"bundle": b}) for b in bundles]
    height_jobs = {n: [job(f"height{n}", "height",
                           {"bundle": b, "N": n, "generator": f"(x+{c})^{n}"})
                       for b in bundles] for n in (1, 2)}
    fail = [(_job("unit-reg", {"element": f"x+{c}"}, field=poly),
             dict(base, kind="fail", expect_rc=2, expect_err="error[domain]"))]
    return {
        "info": [job("info", "field-info", {})],
        "unit": unit_jobs,
        "degree": degree_jobs,
        "height1": height_jobs[1],
        "height2": height_jobs[2],
        "kranks": [job("kranks", "kranks", {"max_p": p}) for p in (3, 6)],
        "fail": fail,
    }


# ---------------------------------------------------------------------------
# public interface


def candidate_fields(workload: str) -> list:
    """Every field a workload may use, warm-up included; the parent certifies
    these before any worker starts, and only certified ones are drawn."""
    if workload == "bloch_sweep":
        ms = sorted({m for ms in BLOCH_CLASSES.values() for m in ms})
        return [lam_poly(m) for m in ms] + [BLOCH_WARMUP]
    if workload == "arakelov_degrees":
        return [arakelov_poly(d) for d in ARAKELOV_DEGREES] + [ARAKELOV_WARMUP]
    if workload == "dilog_plane":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(workload: str) -> dict:
    """One job on an input outside the workload's universe."""
    if workload == "bloch_sweep":
        return _job("bloch-check", {"candidates": ["x"]}, field=BLOCH_WARMUP)
    if workload == "dilog_plane":
        return _job("dilog", {"z": "0.1875+0.0625i"})
    return _job("field-info", {}, field=ARAKELOV_WARMUP)


def _field_groups(workload: str, certified: dict):
    """Per size class: the certified fields and their per-kind job lists."""
    classes = {}
    if workload == "bloch_sweep":
        for name, ms in BLOCH_CLASSES.items():
            classes[name] = [_bloch_field_jobs(m) for m in ms
                             if poly_key(lam_poly(m)) in certified]
    else:
        for d in ARAKELOV_DEGREES:
            p = arakelov_poly(d)
            classes[d] = ([_arakelov_field_jobs(p, certified[poly_key(p)]["r1"])]
                          if poly_key(p) in certified else [])
    for name, fields in classes.items():
        if not fields:
            raise ValueError(f"{workload}: no certified field in class {name!r}")
    return classes


def _round_template(workload: str):
    if workload == "bloch_sweep":
        return BLOCH_ROUND
    groups = [(d, ARAKELOV_SCHEDULE[d]) for d in ARAKELOV_DEGREES]
    return [(d, kinds + ("fail",) if d == ARAKELOV_FAIL_DEGREE else kinds)
            for d, kinds in groups]


def plan(workload: str, seed: int, certified: dict) -> list:
    """Rounds of (job, meta) pairs; the same seed gives the same rounds."""
    rng = random.Random(f"arithreg-bench-{workload}-{seed}")
    rounds = PLAN_ROUNDS[workload]
    out = []
    if workload == "dilog_plane":
        # systematic sampling: the seed picks where each slot starts, then
        # every round steps DILOG_STRIDE points along the band's modulus
        # order, so any run of a few rounds covers each band evenly and the
        # share of costly points does not depend on the seed
        pool = _dilog_pool()
        start = {s: rng.randrange(len(members)) for s, members in pool.items()}
        for r in range(rounds):
            this = [members[(start[s] + r * DILOG_STRIDE) % len(members)]
                    for s, members in pool.items()]
            rng.shuffle(this)
            out.append(this)
        return out
    classes = _field_groups(workload, certified)
    template = list(_round_template(workload))
    for _ in range(rounds):
        rng.shuffle(template)
        this = []
        for cls, kinds in template:
            field = _draw(rng, classes[cls])
            group = [_draw(rng, field[k]) for k in kinds]
            rng.shuffle(group)
            this.extend(group)
        out.append(this)
    return out


def universe(workload: str, certified: dict) -> list:
    """Every (job, meta) pair that plan() can draw, each job once."""
    if workload == "dilog_plane":
        pairs = [pair for pool in _dilog_pool().values() for pair in pool]
    else:
        classes = _field_groups(workload, certified)
        used = {}
        for cls, kinds in _round_template(workload):
            used.setdefault(cls, set()).update(kinds)
        pairs = [pair for cls, fields in classes.items() for field in fields
                 for kind in sorted(used[cls]) for pair in field[kind]]
    unique = {}
    for job, meta in pairs:
        unique.setdefault(job_key(job), (job, meta))
    return list(unique.values())
