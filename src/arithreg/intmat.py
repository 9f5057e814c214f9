"""Exact linear algebra over the integers and rationals.

Everything here works on plain lists of Python ints / Fractions, which keeps
the routines exact for arbitrarily large entries. Matrices are row-major;
"row HNF" means pivots move left to right down the rows, pivots are positive,
and entries above a pivot are reduced into [0, pivot). One HNF serves every
lattice, reducing modulo the product of its pivots once it has full rank;
the left kernel is read off the HNF of the rows next to an identity block,
and the Smith normal form off alternating row and column HNFs, each column
carrying its column of the transform (Kannan and Bachem 1979). LLL is the
integral variant, whose Gram-Schmidt data are integers, and accepts only
linearly independent rows. Matrix determinants, inverses and linear solves,
over the integers or the rationals, all run through one fraction-free
(Bareiss) elimination in integers; rational input is scaled to integers
first and results come back as integer numerators over one denominator.
Norms and inverses of field elements take no matrix: arithreg.nf reads them
off a subresultant remainder sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DomainError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis of the lattice spanned by integer rows: the nonzero
    rows of its row HNF, top to bottom.

    Rows go one at a time into an echelon basis with one row per pivot
    column, merging into the row of their leading column by an exact
    subtraction when its pivot divides the entry and by xgcd otherwise; a
    new or shrunk pivot reduces the entries above it. Once every column has
    a pivot, their product R is the determinant of a full-rank sublattice,
    so R * Z^n lies in the lattice and entries off the pivots are reduced
    mod R, which shrinks with the pivots (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.4.8; Domich, Kannan and Trotter 1987).
    A last pass, left to right, reduces the entries above each pivot into
    [0, pivot).
    """
    n = len(rows[0]) if rows else 0
    basis = {}  # pivot column -> basis row, positive at its pivot
    modulus = 0  # product of the pivots once every column has one
    for row in rows:
        v = [x % modulus for x in row] if modulus else list(row)
        for col in range(n):
            c = v[col]
            if not c:
                continue
            b = basis.get(col)
            if b is None:
                basis[col] = v if c > 0 else [-x for x in v]
                _reduce_above(basis, col)
                if len(basis) == n:
                    modulus = prod(basis[j][j] for j in range(n))
                    for j, r in basis.items():
                        r[j + 1:] = [x % modulus for x in r[j + 1:]]
                break
            # v and b are zero left of col, so only their tails change
            a, vt, bt = b[col], v[col + 1:], b[col + 1:]
            if c % a == 0:
                q = c // a
                vt = ([(x - q * y) % modulus for x, y in zip(vt, bt)] if modulus
                      else [x - q * y for x, y in zip(vt, bt)])
            else:
                g, s, t = xgcd(a, c)
                a, c = a // g, c // g
                b[col] = g
                b[col + 1:] = [s * y + t * x for x, y in zip(vt, bt)]
                vt = [a * x - c * y for x, y in zip(vt, bt)]
                if modulus:
                    modulus //= a  # the pivot shrank by the factor a
                    b[col + 1:] = [x % modulus for x in b[col + 1:]]
                    vt = [x % modulus for x in vt]
                _reduce_above(basis, col)
            v[col] = 0
            v[col + 1:] = vt

    cols = sorted(basis)
    for col in cols:
        _reduce_above(basis, col)
    return [basis[col] for col in cols]


def _reduce_above(basis: dict, col: int):
    """Reduce the entries at col of the basis rows with earlier pivots into
    [0, pivot at col); as rows go in, this keeps entries from growing."""
    b = basis[col]
    for j, row in basis.items():
        q = row[col] // b[col] if j < col else 0
        if q:
            row[col:] = [x - q * y for x, y in zip(row[col:], b[col:])]


def left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {v : v * rows == 0}, canonicalized by HNF: the right block of
    the rows of hnf([rows | I]) whose left block is zero."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    return [row[n:] for row in hnf([list(r) + unit for r, unit in zip(rows, identity(m))])
            if not any(row[:n])]


def in_lattice(vec: list[int], basis_hnf: list[list[int]]) -> bool:
    """Exact membership of an integer vector in the row lattice (HNF basis)."""
    v = list(vec)
    n = len(v)
    for row in basis_hnf:
        col = next((j for j in range(n) if row[j]), None)
        if col is None:
            continue
        q, r = divmod(v[col], row[col])
        if r != 0:
            return False
        if q:
            for j in range(n):
                v[j] -= q * row[j]
    return all(t == 0 for t in v)


def snf(rows: list[list[int]]):
    """Smith normal form from alternating HNFs (Kannan and Bachem,
    Polynomial algorithms for computing the Smith and Hermite normal forms
    of an integer matrix, SIAM J. Comput. 1979): returns (invariants, V)
    with V unimodular and U * rows * V == S for some unimodular U, where S
    is zero but for the n invariants on its diagonal, the nonzero ones first
    in a divisibility chain d1 | d2 | ... and 0 for a free coordinate.

    A column HNF (hnf on the columns of S, each with its column of V
    appended, so V follows every column operation) alternates with a row
    HNF of S, which keeps only its nonzero rows, until S is diagonal; a
    diagonal that is not a divisibility chain has a row added to an earlier
    one and goes round again. The row operations that make up U are applied
    to S only.
    """
    n = len(rows[0]) if rows else 0
    s, v = rows, identity(n)
    while True:
        m = len(s)
        # the V block has full rank, so hnf keeps all n columns
        cols = hnf(list(zip(*s, *v)))
        v = [list(r) for r in zip(*(c[m:] for c in cols))]
        s = hnf(list(zip(*(c[:m] for c in cols))))
        if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            continue
        diag = [row[i] for i, row in enumerate(s)]
        pair = next(((i, j) for j in range(len(diag)) for i in range(j)
                     if diag[j] % diag[i]), None)
        if pair is None:
            return diag + [0] * (n - len(diag)), v
        i, j = pair
        s[i] = [x + y for x, y in zip(s[i], s[j])]


def _fraction_free(aug: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """Fraction-free elimination (Bareiss 1968) of the integer system
    a * X = b, given as n augmented rows [a | b] (b may have no columns) and
    overwritten. Returns (det a, X) with a * X = det(a) * b, X integer by
    Cramer's rule, or (0, None) when a is singular. Every division, in the
    forward pass and in the back substitution of X = det(a) * a^-1 b, is
    exact in the integers.

    A step only rescales a row with a 0 in its pivot column, and successive
    rescales telescope: such a row waits, and is rescaled once from the
    pivot level[i] it was last brought to when a step reads it.
    """
    n = len(aug)
    width = len(aug[0]) if n else 0
    sign, prev = 1, 1
    level = [1] * n
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            level[k], level[piv] = level[piv], level[k]
            sign = -sign
        for i in range(k, n):
            ai = aug[i]
            if ai[k] and level[i] != prev:
                ai[k:] = [x * prev // level[i] for x in ai[k:]]
        ak, akk = aug[k], aug[k][k]
        for i in range(k + 1, n):
            ai, aik = aug[i], aug[i][k]
            if aik:
                for j in range(k + 1, width):
                    ai[j] = (ai[j] * akk - aik * ak[j]) // prev
                level[i] = akk
        prev = akk
    det, x = sign * prev, [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        x[i] = [(det * row[c] - sum(row[j] * x[j][c - n] for j in range(i + 1, n))) // row[i]
                for c in range(n, width)]
    return det, x


def det_fraction(mat: list[list[Fraction]]) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators, eliminated fraction-free, and the scales divided out."""
    scaled = [_scaled_rows([row]) for row in mat]
    det, _ = _fraction_free([row for (row,), _ in scaled])
    return Fraction(det, prod(d for _, d in scaled))


def _integer_inverse(rows) -> tuple[list[list[int]], int]:
    """(M, e): the inverse of a square matrix of ints and Fractions is M / e,
    with M an integer matrix, e > 0 and gcd(e, *M) = 1. ZeroDivisionError
    when the matrix is singular."""
    a, d = _scaled_rows(rows)
    det, x = _fraction_free([row + unit for row, unit in zip(a, identity(len(a)))])
    if x is None:
        raise ZeroDivisionError("singular matrix")
    # rows^-1 = d * a^-1 = d * x / det, put in lowest terms over e > 0
    g = gcd(det, d * gcd(*(v for row in x for v in row)))
    if det < 0:
        g = -g
    return [[d * v // g for v in row] for row in x], det // g


def solve_fraction(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve x * a = b exactly for a square invertible matrix a (row-vector
    convention, matching the rest of the package)."""
    m, e = _integer_inverse(a)
    return [sum((c * row[j] for c, row in zip(b, m)), Fraction(0)) / e for j in range(len(m))]


def hnf_rational(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Canonical basis of the lattice spanned by the rational rows rows / den,
    for integer rows and den > 0: (h, e) with h the integer row HNF of e
    times the lattice and e > 0 the least such, so gcd(e, *h) = 1."""
    h = hnf(rows)
    g = gcd(den, *(x for row in h for x in row))
    return [[x // g for x in row] for row in h], den // g


def _scaled_rows(rows) -> tuple[list[list[int]], int]:
    """Rows of ints and Fractions times the lcm d of their denominators, as
    integer rows, and d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def lll(rows: list[list[int]]) -> list[list[int]]:
    """LLL reduction (delta = 3/4) of a basis of linearly independent
    integer rows, by de Weger's integral LLL (Cohen, Alg. 2.6.7).

    Gram-Schmidt data lives in integers: d[i] is the Gram determinant of the
    first i rows and lam[k][j] = d[j+1] * mu[k][j], both updated in place on
    every size reduction and swap. Each row is fully size-reduced against
    all earlier rows, rounding mu half away from zero, before its Lovasz
    test. Raises DomainError when the rows are linearly dependent.
    """
    b = [list(r) for r in rows]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for k in range(m):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise DomainError("lll needs linearly independent rows")
            else:
                d[k + 1] = u

    k = 1
    while k < m:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            t = lk[j]
            r = (2 * t + dj) // (2 * dj) if t >= 0 else -((dj - 2 * t) // (2 * dj))
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lk[j] = t - r * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
        t = lk[k - 1]
        # Lovasz test B_k < (3/4 - mu^2) B_{k-1}, multiplied out by 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * t * t:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new_d = (d[k + 1] * d[k - 1] + t * t) // d[k]
            for i in range(k + 1, m):
                li = lam[i]
                s = li[k]
                li[k] = (d[k + 1] * li[k - 1] - t * s) // d[k]
                li[k - 1] = (new_d * s + t * li[k]) // d[k + 1]
            d[k] = new_d
            k = max(k - 1, 1)
        else:
            k += 1
    return b
