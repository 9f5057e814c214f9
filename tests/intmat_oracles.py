"""Brute-force reference computations that the tests compare intmat against.

They are independent of the Smith/Hermite machinery and the fraction-free
elimination in arithreg.intmat, and only practical for small matrices. The
Gauss-Jordan inverse and solve over Fractions are the routines the package
used before one fraction-free elimination replaced them. hnf_transform is
the column-by-column xgcd HNF with a unimodular transform that the package
used before its one modular HNF; left_kernel_by_transform reads the kernel
off that transform.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from arithreg.intmat import identity, xgcd


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


def group_invariants(invariants) -> tuple[list[int], int]:
    """(torsion invariants > 1, free rank) of the group Z^k / S for a Smith
    form S, from its diagonal with 0 marking a free coordinate."""
    return [d for d in invariants if d > 1], sum(1 for d in invariants if d == 0)


def _det_int(mat: list[list[int]]) -> int:
    d = det_by_elimination([[Fraction(x) for x in row] for row in mat])
    assert d.denominator == 1
    return abs(int(d))


def det_by_elimination(mat: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(mat)
    a = [list(row) for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] * inv
            if f:
                for j in range(col, n):
                    a[i][j] -= f * a[col][j]
    return det


def gauss_jordan(aug: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row-reduce an n-row augmented matrix until its left n x n block is the
    identity; returns the columns to the right of that block. Entries are
    ints or Fractions, and every quotient is a Fraction."""
    n = len(aug)
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [t * inv for t in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def solve_by_gauss_jordan(a, b) -> list[Fraction]:
    """x with x * a = b (row-vector convention), by Gauss-Jordan on a^T."""
    n = len(a)
    return [row[0] for row in gauss_jordan([[a[j][i] for j in range(n)] + [b[i]]
                                            for i in range(n)])]


def invert_by_gauss_jordan(a) -> list[list[Fraction]]:
    n = len(a)
    return gauss_jordan([list(a[i]) + [Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)])


def lll_fraction(rows: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Exact-arithmetic LLL reduction of an integer lattice basis.

    Gram-Schmidt data is kept as Fractions so the reduction never suffers
    floating loss; fine for the small dimensions used here.
    """
    b = [list(r) for r in rows]
    m = len(b)
    if m <= 1:
        return b

    def dot(x, y):
        return sum(Fraction(xi) * yi for xi, yi in zip(x, y))

    def gso():
        mu = [[Fraction(0)] * m for _ in range(m)]
        bstar = []
        norms = []
        for i in range(m):
            w = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                mu[i][j] = dot(b[i], bstar[j]) / norms[j]
                w = [wv - mu[i][j] * sv for wv, sv in zip(w, bstar[j])]
            bstar.append(w)
            norms.append(dot(w, w))
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = int(q + Fraction(1, 2)) if q >= 0 else -int(-q + Fraction(1, 2))
            if r:
                b[k] = [bk - r * bj for bk, bj in zip(b[k], b[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


def hnf_transform(rows: list[list[int]], transform: bool = False):
    """Row Hermite normal form.

    Returns (H, U, pivots) when transform is True, with U unimodular and
    U * rows == H; otherwise just (H, pivots). Zero rows of H sit at the
    bottom. pivots is the list of pivot column indices, one per nonzero row.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = identity(m) if transform else None

    pivots = []
    r = 0  # current pivot row
    for col in range(n):
        # clear column below row r via extended gcd row operations
        piv = None
        for i in range(r, m):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            if transform:
                u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if h[i][col]:
                g, x, y = xgcd(h[r][col], h[i][col])
                ar, ai = h[r][col] // g, h[i][col] // g
                h[r], h[i] = (
                    [x * h[r][j] + y * h[i][j] for j in range(n)],
                    [-ai * h[r][j] + ar * h[i][j] for j in range(n)],
                )
                if transform:
                    u[r], u[i] = (
                        [x * u[r][j] + y * u[i][j] for j in range(m)],
                        [-ai * u[r][j] + ar * u[i][j] for j in range(m)],
                    )
        if h[r][col] < 0:
            h[r] = [-v for v in h[r]]
            if transform:
                u[r] = [-v for v in u[r]]
        # reduce entries above the pivot into [0, pivot)
        d = h[r][col]
        for i in range(r):
            q = h[i][col] // d
            if q:
                h[i] = [h[i][j] - q * h[r][j] for j in range(n)]
                if transform:
                    u[i] = [u[i][j] - q * u[r][j] for j in range(m)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if transform:
        return h, u, pivots
    return h, pivots


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis (nonzero HNF rows) of the lattice spanned by rows."""
    if not rows:
        return []
    h, pivots = hnf_transform(rows)
    return [h[i] for i in range(len(pivots))]


def left_kernel_by_transform(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {v : v * rows == 0}: the rows of U below the rank, put in
    HNF."""
    m = len(rows)
    if m == 0:
        return []
    h, u, pivots = hnf_transform(rows, transform=True)
    ker = [u[i] for i in range(len(pivots), m)]
    return hnf_rows(ker) if ker else []
