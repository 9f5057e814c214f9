"""Input guard: certify every benchmark field with sympy before any job runs.

A field enters a workload only when its defining polynomial is squarefree
and irreducible over Q and its power basis is the full ring of integers
(polynomial discriminant equal to the field discriminant from Round 2). The
library accepts some polynomials that fail these checks (x^8 - x + 1 is
divisible by x^2 - x + 1), and a later correctness fix must turn those into
rejections without the benchmark counting them as failures. The number of
real roots r1 comes from sympy as well, so oracles can check signatures
against it.
"""

from __future__ import annotations

from sympy import Poly, discriminant, symbols
from sympy.polys.numberfields.basis import round_two

_X = symbols("x")


def certify(poly) -> dict | None:
    """{"r1": ...} for an admissible ascending coefficient list, else None."""
    f = Poly(list(reversed(poly)), _X, domain="ZZ")
    if not (f.is_sqf and f.is_irreducible):
        return None
    _, field_disc = round_two(f)
    if discriminant(f) != field_disc:
        return None
    return {"r1": int(f.count_roots())}


def certify_all(polys) -> dict:
    """Verdicts keyed by comma-joined coefficients, admissible fields only."""
    out = {}
    for poly in polys:
        verdict = certify(poly)
        if verdict is not None:
            out[",".join(str(c) for c in poly)] = verdict
    return out
