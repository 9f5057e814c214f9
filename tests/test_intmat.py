import random
from fractions import Fraction

import pytest

from arithreg.errors import DomainError
from arithreg.intmat import (_integer_inverse, det_fraction, hnf, hnf_rational, identity,
                             in_lattice, left_kernel, lll, snf, solve_fraction, xgcd)
from intmat_oracles import (det_by_elimination, hnf_rows, hnf_transform,
                            invariant_factors_by_minors, invert_by_gauss_jordan,
                            left_kernel_by_transform, lll_fraction, mat_mul,
                            solve_by_gauss_jordan)


def invert_fraction(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a square Fraction matrix, through the library's one
    fraction-free inverse."""
    m, e = _integer_inverse(a)
    return [[Fraction(v, e) for v in row] for row in m]


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_canonical_form():
    h = hnf([[2, 0], [1, 1]])
    assert h == [[1, 1], [0, 2]]
    # canonical: same lattice from a different generating set
    assert hnf([[1, 1], [2, 0], [3, 1]]) == h
    assert hnf([]) == [] and hnf([[0, 0]]) == []


def test_hnf_transform_is_unimodular():
    # the oracle's transform U is unimodular with U * rows == H, and hnf
    # returns the nonzero rows of H
    rng = random.Random(2)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        h, u, pivots = hnf_transform(a, transform=True)
        assert mat_mul(u, a) == h
        det = det_fraction([[Fraction(x) for x in row] for row in u])
        assert abs(det) == 1
        assert hnf(a) == h[:len(pivots)]


def _differential_inputs():
    """(label, rows) inputs on which hnf and left_kernel must match the
    column-by-column xgcd oracle."""
    rng = random.Random(11)
    cases = []
    for n in (2, 3, 4):
        # tall full-rank n^2 x n rows with entries up to 10^12: the modulus
        # takes over once every column has a pivot
        cases.append((f"tall {n}", [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)]
                                    for _ in range(n * n)]))
    for trial in range(6):
        # rank-deficient: combinations of fewer rows than columns, so no
        # modulus ever exists
        n, r = rng.randint(3, 6), rng.randint(1, 2)
        base = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(r)]
        cases.append((f"rank {r} of {n}", [[sum(rng.randint(-4, 4) * b[j] for b in base)
                                            for j in range(n)] for _ in range(n + 2)]))
    for trial in range(4):
        # zero rows, zero columns and a repeated row mixed into small rows
        n = rng.randint(2, 5)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(5)]
        rows[1] = [0] * n
        rows.append(list(rows[0]))
        cases.append((f"zeros {trial}", rows))
    for trial in range(4):
        # wide: more columns than rows
        m = rng.randint(1, 3)
        cases.append((f"wide {trial}", [[rng.randint(-99, 99) for _ in range(m + 3)]
                                        for _ in range(m)]))
    cases.append(("single row", [[0, -6, 4, 10]]))
    cases.append(("zero rows only", [[0, 0, 0], [0, 0, 0]]))
    return cases


@pytest.mark.parametrize("label, rows", _differential_inputs())
def test_hnf_and_left_kernel_match_transform_oracle(label, rows):
    h = hnf(rows)
    assert h == hnf_rows(rows), label
    assert left_kernel(rows) == left_kernel_by_transform(rows), label
    # canonical form: positive pivots, zeros left of them, entries above in [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(h, pivots)):
        assert row[col] > 0
        assert all(0 <= h[k][col] < row[col] for k in range(i))


@pytest.mark.parametrize("n", [16, 24])
def test_hnf_of_ideal_square_matches_oracle(n):
    # the n^2 products of the basis of (x + 2) on x^n - x - 1 with itself:
    # a square spanned by every basis product, where FractionalIdeal.multiply
    # hands hnf 2n rows
    from arithreg.arakelov import FractionalIdeal
    from arithreg.nf import parse_field

    K = parse_field({"poly": [-1, -1] + [0] * (n - 2) + [1]})
    ideal = FractionalIdeal.principal(K.gen() + K.element([2]))
    # on the power basis, coordinates are the coefficients
    basis = [K.element(row) for row in ideal.rows]
    rows = [[int(c) for c in (a * b).coeffs] for a in basis for b in basis]
    assert ideal.den == 1 and len(rows) == n * n
    h = hnf(rows)
    assert h == hnf_rows(rows)
    assert len(h) == n
    # the transform oracle is too slow on all n^2 rows: the first n rows span
    # the ideal times its first basis element, and two more leave a kernel
    # of rank 2
    some = rows[:n] + rows[-2:]
    kernel = left_kernel(some)
    assert kernel == left_kernel_by_transform(some)
    assert len(kernel) == 2


def test_left_kernel():
    ker = left_kernel([[1, 1], [2, 2], [0, 3]])
    assert ker == [[2, -1, 0]]
    assert left_kernel([[1, 0], [0, 1]]) == []
    assert left_kernel([[]] * 3) == identity(3)  # zero-width rows: every vector


def test_left_kernel_random_annihilates():
    rng = random.Random(3)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        for v in left_kernel(a):
            prod = [sum(v[i] * a[i][j] for i in range(m)) for j in range(n)]
            assert all(x == 0 for x in prod)


def assert_smith_form(a):
    """snf(a) = (invariants, V) with V unimodular and U * a * V == S for a
    unimodular U, where S = diag(invariants); the invariants are those of
    the minors oracle, a divisibility chain, with zeros only after the
    nonzero entries. Returns the invariants."""
    n = len(a[0])
    invariants, v = snf(a)
    # U * a * V == S for a unimodular U exactly when V is unimodular and
    # a * V spans the row lattice of S
    assert abs(det_fraction([[Fraction(x) for x in row] for row in v])) == 1
    s = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(invariants)]
    assert hnf(mat_mul(a, v)) == hnf(s)
    nonzero = [d for d in invariants if d]
    assert nonzero == invariant_factors_by_minors(a)
    for i in range(len(nonzero) - 1):
        assert nonzero[i + 1] % nonzero[i] == 0
    assert invariants == nonzero + [0] * (n - len(nonzero))
    return invariants


def test_snf_matches_minors_oracle():
    rng = random.Random(4)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        assert_smith_form([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_snf_random_shapes_match_minors_oracle():
    rng = random.Random(41)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        assert_smith_form([[rng.randint(-1000, 1000) if rng.random() < 0.6 else 0
                            for _ in range(n)] for _ in range(m)])


def test_snf_small_cases():
    assert snf([]) == ([], [])
    assert assert_smith_form([[0, 0], [0, 0], [0, 0]]) == [0, 0]
    assert assert_smith_form([[6, 10, 15]]) == [1, 0, 0]
    assert assert_smith_form([[4], [6], [10]]) == [2]
    assert assert_smith_form([[2, 0], [0, 3]]) == [1, 6]
    assert assert_smith_form([[4, 0], [0, 6]]) == [2, 12]
    assert assert_smith_form([[2, 4, 4], [0, 0, 0], [-6, 6, 12]]) == [2, 6, 0]


def test_snf_transform_stays_small():
    """The torsion generator of a presentation is a row of V^-1; on
    relation-like bases (the HNF of k - 1 sparse rows with entries up to 64)
    its entries stay within 128 bits."""
    rng = random.Random(0)
    for _ in range(300):
        k = rng.randint(2, 8)
        basis = hnf([[rng.randint(-64, 64) if rng.random() < 0.4 else 0 for _ in range(k)]
                     for _ in range(k - 1)])
        if basis:
            _, v = snf(basis)
            inverse, den = _integer_inverse(v)
            assert den == 1
            assert max(abs(x) for row in inverse for x in row).bit_length() <= 128


def test_in_lattice():
    basis = hnf([[2, 0], [0, 3]])
    assert in_lattice([4, 3], basis)
    assert not in_lattice([1, 0], basis)
    assert in_lattice([0, 0], basis)


def test_solve_and_invert_fraction():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    x = solve_fraction(a, [Fraction(3), Fraction(2)])
    # row-vector convention: x * a = b
    assert [x[0] * a[0][j] + x[1] * a[1][j] for j in range(2)] == [Fraction(3), Fraction(2)]
    inv = invert_fraction(a)
    prod = [[sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_det_fraction_matches_elimination_oracle():
    rng = random.Random(9)

    def entry():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12)))

    for trial in range(300):
        n = rng.randint(0, 7)
        a = [[entry() for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 1:
            # singular: the last row is a combination of the first two
            c = entry()
            a[-1] = [x + c * y for x, y in zip(a[0], a[1 % (n - 1)])]
        elif n >= 2 and trial % 3 == 2:
            # zero pivots: only the last row may start with a nonzero entry
            for row in a[:-1]:
                row[0] = Fraction(0)
        assert det_fraction(a) == det_by_elimination(a)
    assert det_fraction([]) == 1
    assert det_fraction([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert det_fraction([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]) == 0


def test_fraction_free_solves_match_gauss_jordan_oracle():
    rng = random.Random(23)

    def entry():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12)))

    singular = 0
    for trial in range(120):
        n = rng.randint(1, 8)
        a = [[entry() for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 1:
            # singular: the last row is a combination of the first two
            c = entry()
            a[-1] = [x + c * y for x, y in zip(a[0], a[1 % (n - 1)])]
        elif n >= 2 and trial % 3 == 2:
            # forced row swaps: zero leading entries above the last row
            for i, row in enumerate(a[:-1]):
                row[:1 + i % 2] = [Fraction(0)] * (1 + i % 2)
        b = [entry() for _ in range(n)]
        before = [list(row) for row in a]
        det = det_fraction(a)
        assert det == det_by_elimination(a)
        try:
            inverse = invert_by_gauss_jordan([list(row) for row in a])
        except ZeroDivisionError:
            singular += 1
            assert det == 0
            with pytest.raises(ZeroDivisionError):
                invert_fraction(a)
            with pytest.raises(ZeroDivisionError):
                solve_fraction(a, b)
            continue
        assert invert_fraction(a) == inverse
        assert solve_fraction(a, b) == solve_by_gauss_jordan(a, b)
        assert a == before
    assert 20 <= singular < 120


def test_hnf_rational():
    # rows / den in, (integer HNF of e times the lattice, least e) out
    assert hnf_rational([[3, 0], [0, 2]], 6) == ([[3, 0], [0, 2]], 6)  # 1/2 Z + 1/3 Z
    # half-integer lattice
    assert hnf_rational([[2, 0], [1, 1]], 2) == ([[1, 1], [0, 2]], 2)
    # a common factor of every entry and den cancels
    assert hnf_rational([[4, 0], [0, 6]], 2) == ([[2, 0], [0, 3]], 1)
    assert hnf_rational([[6, 3], [0, 9]], 12) == ([[2, 1], [0, 3]], 4)
    assert hnf_rational([[0, 0]], 5) == ([], 1)


def test_lll_finds_short_relation():
    # 1*v0 + 1*v1 - 1*v2 is short in the last column
    rows = [[1, 0, 0, 10000], [0, 1, 0, 10001], [0, 0, 1, 20001]]
    red = lll(rows)
    assert any(max(abs(x) for x in row[:3]) <= 2 and abs(row[3]) <= 2 for row in red)


def test_lll_preserves_lattice():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
        red = lll(rows)
        assert hnf(red) == hnf(rows)


def assert_lll_reduced(rows):
    """Size reduction |mu| <= 1/2 and the Lovasz condition at delta = 3/4,
    checked on the exact Fraction Gram-Schmidt data of rows."""
    bstar, norms = [], []
    for i, row in enumerate(rows):
        w = [Fraction(x) for x in row]
        mu = []
        for s, n in zip(bstar, norms):
            mu.append(sum(x * y for x, y in zip(row, s)) / n)
            w = [a - mu[-1] * b for a, b in zip(w, s)]
        assert all(abs(c) <= Fraction(1, 2) for c in mu)
        norm = sum(x * x for x in w)
        if i:
            assert norm >= (Fraction(3, 4) - mu[-1] ** 2) * norms[-1]
        bstar.append(w)
        norms.append(norm)


def test_lll_matches_fraction_oracle_on_random_lattices():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(2, 8)
        n = m + rng.randint(0, 3)
        size = 10 ** rng.randint(1, 12)
        rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]
        red = lll(rows)
        assert red == lll_fraction(rows), rows
        assert_lll_reduced(red)


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[1, 0, 0], [0, 0, 0], [0, 1, 0]],
    [[0, 0]],
])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(DomainError, match="linearly independent"):
        lll(rows)
