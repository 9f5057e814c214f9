"""Brute-force reference computations that the tests compare intmat against.

They are independent of the Smith/Hermite machinery in arithreg.intmat and
only practical for small matrices.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from arithreg.intmat import det_fraction


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            t = ai[k]
            if t:
                bk = b[k]
                for j in range(cols):
                    oi[j] += t * bk[j]
    return out


def invariant_factors_by_minors(rows: list[list[int]]) -> list[int]:
    """Invariant factors via gcds of k x k minors (brute force).

    Independent of snf(); only usable for small matrices. Returns the
    diagonal d1, ..., dr of the nonzero invariant factors.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                g = gcd(g, _det_int([[rows[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _det_int(mat: list[list[int]]) -> int:
    d = det_fraction([[Fraction(x) for x in row] for row in mat])
    assert d.denominator == 1
    return abs(int(d))
