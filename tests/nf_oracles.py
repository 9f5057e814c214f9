"""Reference field arithmetic over Fraction coefficients that the tests
compare arithreg.nf against.

This is the coefficient-vector arithmetic the package used before elements
became integer numerators over one denominator: schoolbook products of
Fraction polynomials, long division by the defining polynomial, and the
norm as a Sylvester resultant over Fractions. It reads only an element's
`coeffs` and the field's `defining_poly` and `integral_basis`.
"""

from fractions import Fraction

from arithreg.intmat import det_fraction, invert_fraction


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_rem(p, d):
    """Remainder of p on division by d (d need not be monic)."""
    p = _trim(p)
    while len(p) >= len(d):
        c = p[-1] / d[-1]
        shift = len(p) - len(d)
        for i in range(len(d)):
            p[shift + i] -= c * d[i]
        p = _trim(p[:-1])
    return p


def reduce(field, p) -> tuple:
    """Power-basis coefficients of p mod the defining polynomial."""
    rem = poly_rem([Fraction(c) for c in p], [Fraction(c) for c in field.defining_poly])
    return tuple(rem + [Fraction(0)] * (field.degree - len(rem)))


def add(a, b) -> tuple:
    return reduce(a.field, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def sub(a, b) -> tuple:
    return reduce(a.field, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def mul(a, b) -> tuple:
    return reduce(a.field, poly_mul(list(a.coeffs), list(b.coeffs)))


def power(a, k: int) -> tuple:
    """a^k by repeated products; a negative k inverts first."""
    base = a.coeffs if k >= 0 else a.inverse().coeffs
    out = reduce(a.field, [1])
    for _ in range(abs(k)):
        out = reduce(a.field, poly_mul(list(out), list(base)))
    return out


def resultant(f, g) -> Fraction:
    """Res(f, g) via the Sylvester determinant over Fractions; f monic."""
    f, g = [Fraction(c) for c in f], _trim([Fraction(c) for c in g])
    n, m = len(f) - 1, len(g) - 1
    if m < 0:
        return Fraction(0)
    if m == 0:
        return g[0] ** n
    size = n + m
    fd, gd = list(reversed(f)), list(reversed(g))
    rows = [[Fraction(0)] * i + fd + [Fraction(0)] * (size - n - 1 - i) for i in range(m)]
    rows += [[Fraction(0)] * i + gd + [Fraction(0)] * (size - m - 1 - i) for i in range(n)]
    return det_fraction(rows)


def norm(a) -> Fraction:
    return resultant(a.field.defining_poly, a.coeffs)


def integral_coords(a) -> list:
    inverse = invert_fraction([list(r) for r in a.field.integral_basis])
    n = a.field.degree
    return [sum((a.coeffs[i] * inverse[i][k] for i in range(n)), Fraction(0))
            for k in range(n)]


def is_unit(a) -> bool:
    return (all(c.denominator == 1 for c in integral_coords(a))
            and abs(norm(a)) == 1)
