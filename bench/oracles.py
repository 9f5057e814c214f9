"""Checks of job output that do not use arithreg's numerics.

Each check takes the job record, the generator's metadata and the job's
stdout (JSON mode) and returns None when the output is right, otherwise a
one-line reason. Only mpmath is used: ``mpmath.polylog`` for the
dilogarithm, ``mpmath.polyroots`` and ``mpmath.polyval`` for embeddings, and
the certified signature from sympy for rank and signature checks.
bench/golden.py runs them on every job of a workload before it records the
golden digests; bench/run.py runs them, after the timed loop, on any output
whose bytes differ from golden.
"""

from __future__ import annotations

import json
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf

GUARD = 10

# numeric value of each orbit expression at a root r
ORBIT_VALUES = {
    "x": lambda r: r,
    "x^-1": lambda r: 1 / r,
    "1-x": lambda r: 1 - r,
    "(1-x)^-1": lambda r: 1 / (1 - r),
    "(x-1)/x": lambda r: (r - 1) / r,
    "x/(x-1)": lambda r: r / (r - 1),
}


def _parse_z(text: str):
    """Payload z as mpc; the generator only writes exact dyadic decimals."""
    if not text.endswith("i"):
        return mpc(mpf(text), 0), True
    body = text[:-1]
    k = max(body.rfind("+", 1), body.rfind("-", 1))
    return mpc(mpf(body[:k]), mpf(body[k:])), False


def _bloch_wigner(z):
    return mpmath.polylog(2, z).imag + mp.arg(1 - z) * mp.log(abs(z))


def _close(got: str, want, digits: int, scale=1) -> bool:
    return abs(mpf(got) - want) <= mpf(10) ** (2 - digits) * max(1, abs(scale))


@lru_cache(maxsize=64)
def _roots(poly: tuple, digits: int) -> tuple:
    """Roots in the documented embedding order: real ascending, then complex
    by (real part, imaginary part)."""
    with mp.workdps(digits + 2 * GUARD):
        found = mpmath.polyroots(list(reversed(poly)), maxsteps=400, extraprec=4 * digits)
        tiny = mpf(10) ** (-digits)
        real = sorted(mpf(z.real) for z in map(mpc, found) if abs(z.imag) < tiny)
        cplx = sorted((mpc(z) for z in found if abs(mpc(z).imag) >= tiny),
                      key=lambda z: (z.real, z.imag))
        return tuple(mpc(r, 0) for r in real) + tuple(cplx)


def _k3_values(poly, digits, support, mults):
    """sigma -> -sum n_i D(sigma(lambda_i)); 0 at real embeddings."""
    out = []
    for r in _roots(tuple(poly), digits):
        if r.imag == 0:
            out.append(mpf(0))
            continue
        out.append(-sum(n * _bloch_wigner(ORBIT_VALUES[s](r)) for s, n in zip(support, mults)))
    return out


def _check_vector(got, want, digits, what):
    if len(got) != len(want):
        return f"{what}: {len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, digits - 3, w):
            return f"{what}: embedding {i} is {g}, oracle gives {mp.nstr(w, 12)}"
    return None


def check_dilog(job, meta, out):
    digits = job["precision"]
    with mp.workdps(digits + GUARD):
        z, real = _parse_z(job["payload"]["z"])
        ref = mpmath.polylog(2, z.real if real else z)
        ref = mpc(ref)
        scale = max(1, abs(ref))
        if not _close(out["li2_re"], ref.real, digits, scale):
            return f"li2_re {out['li2_re']} differs from mpmath.polylog {mp.nstr(ref.real, 15)}"
        if not _close(out["li2_im"], ref.imag, digits, scale):
            return f"li2_im {out['li2_im']} differs from mpmath.polylog {mp.nstr(ref.imag, 15)}"
        d = mpf(0) if real else _bloch_wigner(z)
        if not _close(out["bloch_wigner"], d, digits, scale):
            return f"bloch_wigner {out['bloch_wigner']} differs from oracle {mp.nstr(d, 15)}"
    return None


def check_regulator(job, meta, out):
    digits = job["precision"]
    n = meta["n"]
    with mp.workdps(digits + GUARD):
        want = [(n + 1) * v for v in _k3_values(meta["poly"], digits, ["x"], [1])]
        return _check_vector(out["values"], want, digits, "regulator (n+1)(-D)")


def check_bloch(job, meta, out):
    digits = job["precision"]
    candidates = job["payload"]["candidates"]
    if len(out["regulators"]) != len(out["kernel_basis"]):
        return "one regulator per kernel basis element expected"
    with mp.workdps(digits + GUARD):
        for mults, reg in zip(out["kernel_basis"], out["regulators"]):
            want = _k3_values(meta["poly"], digits, candidates, mults)
            problem = _check_vector(reg["values"], want, digits, f"kernel element {mults}")
            if problem:
                return problem
    return None


def check_field_info(job, meta, out):
    digits = job["precision"]
    poly = meta["poly"]
    d = len(poly) - 1
    r1 = meta["r1"]
    if out["signature"] != [r1, (d - r1) // 2]:
        return f"signature {out['signature']} differs from sympy's r1 = {r1}"
    if len(out["embeddings"]) != d:
        return f"{len(out['embeddings'])} embeddings for degree {d}"
    desc = list(reversed(poly))
    deriv = [c * (d - i) for i, c in enumerate(desc[:-1])]
    with mp.workdps(digits + GUARD):
        for text in out["embeddings"]:
            r = _parse_root(text)
            resid = abs(mpmath.polyval(desc, r))
            bound = mpf(10) ** (2 - digits) * max(1, abs(mpmath.polyval(deriv, r)) * max(1, abs(r)))
            if resid > bound:
                return f"root {text} has residual {mp.nstr(resid, 5)}"
    return None


def _parse_root(text: str):
    """mpc from mpmath's complex print form "(re + imj)"."""
    body = text.strip("()").replace(" ", "").rstrip("j")
    k = max(i for i in range(1, len(body)) if body[i] in "+-" and body[i - 1] not in "eE")
    return mpc(mpf(body[:k]), mpf(body[k:]))


def check_unit_reg(job, meta, out):
    digits = job["precision"]
    with mp.workdps(digits + GUARD):
        values = [mpf(v) for v in out["values"]]
        total = mp.fsum(values)
        scale = len(values) * max([1] + [abs(v) for v in values])
        if abs(total) > mpf(10) ** (3 - digits) * scale:
            return f"unit regulator values sum to {mp.nstr(total, 5)}, not 0"
        if abs(mpf(out["mean"])) > mpf(10) ** (3 - digits) * scale:
            return f"mean {out['mean']} is not 0"
    return None


def check_height(job, meta, out):
    with mp.workdps(job["precision"] + GUARD):
        if not mpf(out["abs_difference"]) < mpf("1e-40"):
            return f"height and degree differ by {out['abs_difference']}"
    return None


def check_kranks(job, meta, out):
    d = len(meta["poly"]) - 1
    r1 = meta["r1"]
    r2 = (d - r1) // 2
    for row in out["rows"]:
        p = (1 - row["degree"]) // 2
        want = r1 + r2 - 1 if p == 1 else (r1 + r2 if p % 2 else r2)
        if row["rank"] != want:
            return f"rank {row['rank']} in degree {row['degree']}, expected {want}"
    return None


CHECKS = {
    "dilog": check_dilog,
    "regulator": check_regulator,
    "bloch-check": check_bloch,
    "field-info": check_field_info,
    "unit-reg": check_unit_reg,
    "height": check_height,
    "kranks": check_kranks,
}


def check_exit(meta: dict, rc: int, stdout: str, stderr: str):
    """None when the job ended with the expected exit code and, for a job
    that must fail, with the expected error class on stderr and no stdout."""
    if rc != meta["expect_rc"]:
        return f"exit code {rc}, expected {meta['expect_rc']}: {stderr.strip()[:120]}"
    if rc != 0 and (stdout or not stderr.startswith(meta["expect_err"])):
        return f"expected {meta['expect_err']} on stderr, got {stderr.strip()[:120]!r}"
    return None


def check(job: dict, meta: dict, stdout: str):
    """None when the output of a successful job passes its oracle."""
    if meta["expect_rc"] != 0:
        return None
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON object"
    oracle = CHECKS.get(job["command"])
    return oracle(job, meta, out) if oracle else None
