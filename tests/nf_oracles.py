"""Reference field arithmetic over Fraction coefficients that the tests
compare arithreg.nf against.

This is the coefficient-vector arithmetic the package used before elements
became integer numerators over one denominator: schoolbook products of
Fraction polynomials, long division by the defining polynomial, the norm as
a Sylvester resultant over Fractions, and the inverse from the extended
Euclidean algorithm over Q. It reads only an element's `coeffs` and the
field's `defining_poly` and `integral_basis`. The rational-root search is
the trial-division scan over the divisors of the constant term.

evaluate_at is the oracle of evaluate's integer Horner kernel: the
per-embedding Horner loop on mpmath mpf and mpc values that evaluate ran
before, whose bits the kernel must reproduce. The coefficients become mpf
and Horner's rule runs at one embedding, on the real part of a real root.

mpc_embeddings and mpc_root_radii are the oracle of root finding on that
kernel: the Aberth iteration, Newton polish, canonicalization and root
radii that nf.embeddings ran with Horner's rule on mpf and mpc values
(mpc_horner), whose roots, pairing, signature and radii it must reproduce
bit for bit.
"""

from fractions import Fraction
from math import isqrt

from mpmath import mp, mpc, mpf

from arithreg.errors import DomainError, PrecisionError
from arithreg.intmat import det_fraction
from arithreg.precision import working_dps
from intmat_oracles import invert_by_gauss_jordan


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


def poly_add(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def poly_divmod(p, d):
    """Quotient and remainder; d need not be monic."""
    p = list(p)
    q = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    lead = d[-1]
    while len(p) >= len(d) and _trim(p):
        if p[-1] == 0:
            p.pop()
            continue
        shift = len(p) - len(d)
        c = p[-1] / lead
        q[shift] = c
        for i in range(len(d)):
            p[shift + i] -= c * d[i]
        p.pop()
    return _trim(q), _trim(p)


def poly_xgcd(p, q):
    """Extended gcd: returns (g, s, t) with s*p + t*q = g, g monic or []."""
    r0, r1 = _trim(p), _trim(q)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        qq, rr = poly_divmod(r0, r1)
        r0, r1 = r1, rr
        s0, s1 = s1, poly_add(s0, [-c for c in poly_mul(qq, s1)])
        t0, t1 = t1, poly_add(t0, [-c for c in poly_mul(qq, t1)])
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


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


def inverse(a) -> tuple:
    """The t with s * f + t * a = 1, from the extended gcd over Q."""
    if not any(a.coeffs):
        raise DomainError("division by zero")
    g, _, t = poly_xgcd([Fraction(c) for c in a.field.defining_poly], list(a.coeffs))
    if len(g) != 1:
        raise DomainError("element not invertible; defining polynomial is reducible")
    return reduce(a.field, t)


def power(a, k: int) -> tuple:
    """a^k by repeated products; a negative k inverts first."""
    base = a.coeffs if k >= 0 else inverse(a)
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
    inverse = invert_by_gauss_jordan(a.field.integral_basis)
    n = a.field.degree
    return [sum((a.coeffs[i] * inverse[i][k] for i in range(n)), Fraction(0))
            for k in range(n)]


def is_unit(a) -> bool:
    return (all(c.denominator == 1 for c in integral_coords(a))
            and abs(norm(a)) == 1)


def rational_root(coeffs):
    """The rational root of the monic integer polynomial with a nonzero
    constant term that has the least absolute value, positive first, or
    None: trial division over the divisors of the constant term."""
    c0 = abs(coeffs[0])
    divisors = sorted(d for k in range(1, isqrt(c0) + 1) if c0 % k == 0 for d in (k, c0 // k))
    for d in divisors:
        for root in (d, -d):
            if sum(c * root ** i for i, c in enumerate(coeffs)) == 0:
                return root
    return None


def evaluate_at(a, e, index: int):
    """Numerical value of a at the indexed embedding by Horner's rule on
    mpf and mpc at the working precision, the bits that nf.evaluate must
    reproduce; exactly real, as an mpc, at a real embedding."""
    if index < 0 or index >= e.degree:
        raise DomainError(f"embedding index {index} out of range")
    if a.field != e.field:
        raise DomainError("element and embedding set belong to different fields")
    with mp.workdps(e.working_dps):
        if a.den == 1:
            coeffs = [mpf(c) for c in a.num]
        else:
            coeffs = [mpf(c.numerator) / mpf(c.denominator) for c in a.coeffs]
        acc = coeffs[-1]
        z = mp.re(e.roots[index]) if e.is_real(index) else e.roots[index]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return mpc(acc, 0) if e.is_real(index) else acc


def mpc_horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def mpc_newton(fcoeffs, dcoeffs, z):
    """Eight Newton steps; a real start stays on the real line."""
    for _ in range(8):
        fz = mpc_horner(fcoeffs, z)
        dz = mpc_horner(dcoeffs, z)
        if dz == 0:
            break
        z = z - fz / dz
    return z


def mpc_aberth(coeffs, wp: int) -> list:
    """Simultaneous root iteration for a monic squarefree integer polynomial."""
    n = len(coeffs) - 1
    fcoeffs = [mpf(c) for c in coeffs]
    dcoeffs = [mpf(i * coeffs[i]) for i in range(1, n + 1)]
    radius = 1 + max(abs(mpf(c)) for c in coeffs[:-1])
    z = [radius * mp.exp(mpc(0, 2 * mp.pi * (k + mpf("0.397")) / n + mpf("0.7")))
         for k in range(n)]
    target = mpf(10) ** (-(wp - 3))
    for _ in range(1000):
        max_step = mpf(0)
        for i in range(n):
            zi = z[i]
            fz = mpc_horner(fcoeffs, zi)
            dz = mpc_horner(dcoeffs, zi)
            s = mpc(0)
            for j in range(n):
                if j != i:
                    s += 1 / (zi - z[j])
            denom = dz - fz * s
            if denom == 0:
                z[i] = zi + mpf("0.5") * radius / n
                max_step = radius
                continue
            step = fz / denom
            z[i] = zi - step
            rel = abs(step) / (1 + abs(zi))
            if rel > max_step:
                max_step = rel
        if max_step < target:
            return z
    raise PrecisionError("root iteration failed to converge")


def mpc_embeddings(field, precision: int):
    """(roots, pairing, signature) of field at precision, from the mpc
    Aberth iteration, Newton polish and canonical ordering."""
    wp = working_dps(precision)
    coeffs = field.defining_poly
    n = len(coeffs) - 1
    with mp.workdps(wp):
        roots = [mpc(-coeffs[0], 0)] if n == 1 else mpc_aberth(coeffs, wp)
        fcoeffs = [mpf(c) for c in coeffs]
        dcoeffs = [mpf(i * coeffs[i]) for i in range(1, n + 1)]
        min_sep = min((abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n)),
                      default=mpf(1))
        pairing = []
        for i in range(n):
            dists = [abs(mp.conj(roots[i]) - roots[j]) for j in range(n)]
            j = min(range(n), key=lambda k: dists[k])
            assert dists[j] <= min_sep / 4
            pairing.append(j)
        canon = [None] * n
        for i in range(n):
            if pairing[i] == i:
                canon[i] = mpc(mpc_newton(fcoeffs, dcoeffs, mp.re(roots[i])), 0)
            elif canon[i] is None:
                j = pairing[i]
                rep = mpc_newton(fcoeffs, dcoeffs, roots[i] if mp.im(roots[i]) > 0 else roots[j])
                if mp.im(rep) < 0:
                    rep = mp.conj(rep)
                canon[i] = rep if mp.im(roots[i]) > 0 else mp.conj(rep)
                canon[j] = mp.conj(canon[i])
        order = sorted(range(n), key=lambda i: (pairing[i] != i, mp.re(canon[i]), mp.im(canon[i])))
        inv_order = {old: new for new, old in enumerate(order)}
        pairing = tuple(inv_order[pairing[i]] for i in order)
        r1 = sum(1 for i in range(n) if pairing[i] == i)
        return tuple(canon[i] for i in order), pairing, (r1, (n - r1) // 2)


def mpc_root_radii(e) -> tuple:
    """EmbeddingSet.root_radii from Horner's rule on mpf and mpc values."""
    f, n = e.field.defining_poly, e.degree
    with mp.workdps(e.working_dps):
        u = mpf(2) ** (1 - mp.prec)
        fcoeffs = [mpf(c) for c in f]
        dcoeffs = [mpf(i * f[i]) for i in range(1, n + 1)]
        moduli = [abs(c) for c in fcoeffs]
        return tuple(
            2 * n * (abs(mpc_horner(fcoeffs, z)) + 8 * (n + 1) * u * mpc_horner(moduli, abs(z)))
            / abs(mpc_horner(dcoeffs, z)) for z in e.roots)
