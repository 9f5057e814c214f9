"""Exact arithmetic in a number field K = Q[x]/(f) plus certified complex
embeddings at configurable precision.

An element is stored as integer numerators over the power basis and one
positive common denominator, in lowest terms, always reduced mod the monic
defining polynomial (Cohen, A Course in Computational Algebraic Number
Theory, section 4.2). Every exact operation therefore runs in Python
integers. The norm of a = g(x) / d is Res(f, g) / d^n, as f is monic, and
its inverse is d s / Res(f, g) for the cofactor s with s g = Res(f, g) mod
f: both come from one subresultant remainder sequence of f and g
(_resultant), in exact integer divisions. Each field screens its defining
polynomial once, when it is built: Res(f, f') != 0 proves it squarefree,
and a Hensel lift finds any integer root. The embedding set carries the
numerical side: certified roots of f, closed under exact conjugation, and
read off them the complex-conjugation pairing, the (r1, r2) signature,
double copies and radii about them that hold roots of f, each computed
once; it is also the one place that builds and checks conjugation-invariant
per-embedding vectors. One Horner kernel (_horner_mp), in Python integers
rounding each step exactly as mpmath would, computes every polynomial value
at a multiprecision point: the Aberth and Newton steps, residual checks and
root radii of root finding, and evaluate, which gives an element's whole
vector of conjugates in one call, one Horner evaluation per conjugacy class
mirrored onto the partner. Exact predicates (integrality, norm = +-1) never
touch floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import MPZ, from_int, fzero, mpf_div, mpf_neg, round_nearest

from .errors import (DomainError, FormatError, PrecisionError, SquarefreeError, oversized_number,
                     quoted)
from .intmat import _integer_inverse, _scaled_rows, det_fraction
from .precision import working_dps, working_prec


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class NumberField:
    """K = Q[x]/(f) with a recorded integral basis for its ring of integers."""

    defining_poly: tuple[int, ...]  # ascending, monic
    integral_basis: tuple[tuple[int | Fraction, ...], ...]
    maximality_asserted: bool = True

    def __post_init__(self):
        f = self.defining_poly
        if len(f) < 2:
            raise FormatError("defining polynomial must have degree >= 1")
        if f[-1] != 1:
            raise FormatError("defining polynomial must be monic")
        if any(not isinstance(c, int) for c in f):
            raise FormatError("defining polynomial must have integer coefficients")
        n = self.degree
        if len(self.integral_basis) != n or any(len(r) != n for r in self.integral_basis):
            raise FormatError("integral basis must be a square matrix of size degree")
        if (self.integral_basis != _power_basis(n)
                and det_fraction([list(r) for r in self.integral_basis]) == 0):
            raise FormatError("integral basis is singular")
        _screen_irreducible(self)

    def __hash__(self):
        # consistent with ==, since equal fields have equal polynomials, and
        # cheap: every embeddings-cache lookup hashes the field, and the
        # generated hash would hash the n^2 Fractions of the basis each time
        return hash((self.defining_poly, self.maximality_asserted))

    @property
    def degree(self) -> int:
        return len(self.defining_poly) - 1

    @cached_property
    def _scaled_basis(self) -> tuple[list[list[int]], int]:
        """(B, d): the integral basis is B / d with B an integer matrix."""
        return _scaled_rows(self.integral_basis)

    @cached_property
    def _scaled_inverse(self) -> tuple[list[list[int]], int]:
        """(M, e): the inverse of the integral basis is M / e with M an
        integer matrix, so integral coordinates are power coordinates * M / e."""
        return _integer_inverse(self.integral_basis)

    @cached_property
    def multiplication_table(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Structure constants T of the integral basis: omega_i * omega_j =
        sum_k T[i][j][k] * omega_k (Cohen, sections 4.2 and 4.7).

        Built once per field in integers, from the multiplication matrices
        of the integral basis and its inverse, each scaled to integers.
        DomainError unless the basis spans an order: 1 must have integral
        coordinates and every T[i][j][k] be an integer.
        """
        n = self.degree
        basis, d = self._scaled_basis
        inverse, e = self._scaled_inverse
        if any(x % e for x in inverse[0]):
            raise DomainError("integral basis is not an order: 1 has non-integral coordinates")
        denom = d * d * e
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            times_i = self._multiplication_matrix(basis[i])
            for j in range(i, n):
                # d^2 * e times the integral coordinates of omega_i * omega_j
                coords = _vec_mat(_vec_mat(basis[j], times_i), inverse)
                if any(c % denom for c in coords):
                    raise DomainError(f"integral basis is not an order: omega_{i} * omega_{j} "
                                      "has non-integral coordinates")
                table[i][j] = table[j][i] = tuple(c // denom for c in coords)
        return tuple(tuple(row) for row in table)

    @cached_property
    def _reduction_terms(self) -> tuple[tuple[int, int], ...]:
        """(k, f_k) for the nonzero f_k, k < n: x^n = -sum f_k x^k mod f."""
        f = self.defining_poly
        return tuple((k, c) for k, c in enumerate(f[:-1]) if c)

    def _multiplication_matrix(self, num) -> list[list[int]]:
        """Rows num * x^j mod f for j < n: the integer matrix of
        multiplication by num over the power basis (Cohen, section 4.2),
        from which multiplication_table is built."""
        rows = [list(num)]
        for _ in range(self.degree - 1):
            prev = rows[-1]
            row = [0] + prev[:-1]
            top = prev[-1]
            if top:
                for k, fk in self._reduction_terms:
                    row[k] -= top * fk
            rows.append(row)
        return rows

    def _reduce(self, num: list[int], den: int) -> "FieldElement":
        """The element num / den, for integer coefficients num over the power
        basis (any length) and den > 0: num is reduced mod the monic f in
        integers, padded to n entries and put in lowest terms with den."""
        n = self.degree
        for top in range(len(num) - 1, n - 1, -1):
            c = num[top]
            if c:
                base = top - n
                for k, fk in self._reduction_terms:
                    num[base + k] -= c * fk
        del num[n:]
        num.extend([0] * (n - len(num)))
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return FieldElement(self, tuple(num), den)

    def element(self, coeffs) -> "FieldElement":
        """The element with these rational power-basis coefficients."""
        (num,), den = _scaled_rows([[c if isinstance(c, int) else Fraction(c) for c in coeffs]])
        return self._reduce(num, den)

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self) -> "FieldElement":
        return self.element([0, 1])


def _power(x, n: int, times):
    """x^n, n >= 1, left to right (Cohen, section 1.2): from x, a square per
    bit of n after the leading one and a product by x per set bit there, so
    n.bit_length() - 2 + popcount(n) calls of times, none of them by 1."""
    out = x
    for bit in bin(n)[3:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, x)
    return out


def _vec_mat(vec, rows) -> list:
    """Exact product of a row vector with a matrix given by its rows, one row
    per entry of vec: integer when both are, Fraction otherwise; [] for no rows."""
    out = [0] * len(rows[0]) if rows else []
    for c, row in zip(vec, rows):
        if c:
            out = [s + c * t for s, t in zip(out, row)]
    return out


def _resultant(f, g, cofactor: bool = False) -> tuple[int, list[int] | None]:
    """(Res(f, g), s) for the monic f of degree n >= 1 and a nonzero g of
    degree < n, both ascending integer coefficients, from their subresultant
    remainder sequence (Cohen, Alg. 3.3.7, without content removal). As f is
    monic, Res(f, g) is the product of g over the roots of f. When cofactor
    is set, s holds the ascending coefficients of the cofactor with
    s g = Res(f, g) mod f, carried through the same exact divisions;
    otherwise, and when Res(f, g) = 0, s is None.

    Each step pseudo-divides A by B, from A = f and B = g, delta = deg A -
    deg B >= 1: the dividend is scaled once by lc(B)^(delta + 1), so every
    quotient digit is an exact quotient, and the remainder R is divided
    exactly by lc(A) h^delta, which the subresultant theorem guarantees (von
    zur Gathen and Gerhard, Modern Computer Algebra, chapter 6); then h,
    from h = 1, becomes lc(B)^delta / h^(delta - 1), and A, B become B, R.
    The sign flips at each step whose degrees are both odd, as
    Res(A, B) = (-1)^(deg A deg B) Res(B, A). The cofactors follow the
    remainders: s_R = lc(B)^(delta + 1) s_A - Q s_B, divided by the same
    lc(A) h^delta. Lists run from the leading coefficient down.
    """
    a, b = f[::-1], list(g)
    while not b[-1]:
        b.pop()
    b.reverse()
    sa, sb = [], [1]  # the cofactors of g in a and b modulo f
    lead = h = sign = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if not len(a) % 2 and not len(b) % 2:  # both degrees odd
            sign = -sign
        top, tail = b[0], b[1:]
        scale = top ** (delta + 1)
        r, q = [c * scale for c in a], []
        for k in range(delta + 1):
            c = r[k] // top
            if c:
                for i, y in enumerate(tail, k + 1):
                    r[i] -= c * y
            q.append(c)
        del r[:delta + 1]
        while r and not r[0]:
            del r[0]
        if not r:
            return 0, None
        divisor = lead * h ** delta
        r = [c // divisor for c in r]
        if cofactor:
            s = [0] * (len(q) + len(sb) - 1 - len(sa)) + [c * scale for c in sa]
            for i, c in enumerate(q):
                if c:
                    for j, y in enumerate(sb, i):
                        s[j] -= c * y
            sa, sb = sb, [c // divisor for c in s]
        a, b, lead = b, r, top
        h = top ** delta // h ** (delta - 1)
    # the constant b: Res = sign * b^d / h^(d - 1), d the degree of a
    d = len(a) - 1
    last = h ** (d - 1)
    res = sign * b[0] ** d // last
    if not cofactor:
        return res, None
    m = sign * b[0] ** (d - 1)
    return res, [m * c // last for c in reversed(sb)]


@dataclass(frozen=True)
class FieldElement:
    """num / den over the power basis of field: n integer numerators and one
    denominator den > 0 with gcd(den, *num) = 1, reduced mod the defining
    polynomial, so two elements are equal exactly when their fields, num and
    den are. Build elements with NumberField.element and the arithmetic
    below, which keep that form."""

    field: NumberField
    num: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coefficients."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check_same(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise DomainError(f"cannot combine field element with {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise DomainError("elements live in different fields")

    def _combine(self, other, sign: int) -> "FieldElement":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        self._check_same(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return self.field._reduce([a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same(other)
        conv = [0] * (2 * len(self.num) - 1)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    conv[i + j] += a * b
        return self.field._reduce(conv, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check_same(other)
        return self * other.inverse()

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __radd__(self, other):
        return self._coerce(other) + self

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __pow__(self, exponent: int):
        """_power of self, or of its one inverse() when e < 0, at
        |e|.bit_length() - 2 + popcount(|e|) products, none by 1; one() at 0."""
        if not isinstance(exponent, int):
            raise DomainError("exponents must be integers")
        if exponent == 0:
            return self.field.one()
        return _power(self if exponent > 0 else self.inverse(), abs(exponent), mul)

    def inverse(self) -> "FieldElement":
        """The b with a * b = 1: den * s / Res(f, num), for the cofactor s
        with s * num = Res(f, num) mod f (_resultant)."""
        if self.is_zero():
            raise DomainError("division by zero")
        if not any(self.num[1:]):
            return self.field.element([Fraction(self.den, self.num[0])])
        res, s = _resultant(self.field.defining_poly, self.num, cofactor=True)
        if res == 0:
            raise DomainError("element not invertible; defining polynomial is reducible")
        sign = 1 if res > 0 else -1
        return self.field._reduce([sign * self.den * c for c in s], sign * res)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def norm(self) -> Fraction:
        """Res(f, num) / den^n (_resultant): the product of num over the
        roots of the monic f (Cohen, section 4.3)."""
        n = self.field.degree
        if not any(self.num[1:]):
            return Fraction(self.num[0] ** n, self.den ** n)
        res, _ = _resultant(self.field.defining_poly, self.num)
        return Fraction(res, self.den ** n)

    def _integral_numerators(self) -> tuple[list[int], int]:
        """Integral-basis coordinates as integer numerators over one
        denominator."""
        inverse, e = self.field._scaled_inverse
        return _vec_mat(self.num, inverse), self.den * e

    def integral_coords(self) -> list[Fraction]:
        coords, d = self._integral_numerators()
        return [Fraction(c, d) for c in coords]

    def is_integral(self) -> bool:
        coords, d = self._integral_numerators()
        return all(c % d == 0 for c in coords)

    def is_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def to_record(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def __repr__(self):
        return f"FieldElement({list(map(str, self.coeffs))})"


# ---------------------------------------------------------------------------
# parsing

def _parse_rational(s, key: str) -> int | Fraction:
    """An int, Fraction or rational string such as "-3/4"; JSON booleans and
    floats are not rational entries. An int, or ASCII digits with at most
    one leading minus (the common ideal basis entry), stays an int. A number
    over Python's int-string limit is an error that names key."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return s
    if isinstance(s, str):
        digits = s[1:] if s[:1] == "-" else s
        try:
            return int(s) if digits.isascii() and digits.isdigit() else Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise oversized_number(key, s) or FormatError(f"cannot parse rational value {quoted(s)}")


def parse_field(record: dict) -> NumberField:
    """Build a NumberField from a field-description record.

    Record keys: "poly" (ascending integer coefficients, monic),
    "integral_basis" (optional n x n rational strings), "maximal" (bool,
    default True; echoes the caller's claim that the basis spans the full
    ring of integers).
    """
    if not isinstance(record, dict) or "poly" not in record:
        raise FormatError("field record must be a dict with a 'poly' key")
    poly = record["poly"]
    if not isinstance(poly, (list, tuple)) or len(poly) < 2:
        raise FormatError("'poly' must be a coefficient list of degree >= 1")
    coeffs = []
    for c in poly:
        if isinstance(c, bool) or not isinstance(c, int):
            raise FormatError(f"polynomial coefficient {quoted(c)} is not an integer")
        coeffs.append(c)
    n = len(coeffs) - 1
    basis = record.get("integral_basis")
    if basis is not None:
        if (not isinstance(basis, (list, tuple)) or len(basis) != n
                or any(not isinstance(r, (list, tuple)) or len(r) != n for r in basis)):
            raise FormatError("integral_basis must be an n x n matrix")
        basis = tuple(tuple(_parse_rational(x, "integral_basis") for x in r) for r in basis)
    maximal = record.get("maximal", True)
    if not isinstance(maximal, bool):
        raise FormatError("'maximal' must be a boolean")
    return _shared_field(tuple(coeffs), basis, maximal)


@lru_cache(maxsize=32)
def _shared_field(poly: tuple[int, ...], basis, maximal: bool) -> NumberField:
    """The one NumberField of a parsed record (basis None: the power basis).
    Every job that parses an equal record gets the same object, so the field
    guards of evaluate and arakelov pass on identity against the
    embeddings cached for it, and its lazily built tables are built once."""
    return NumberField(poly, _power_basis(len(poly) - 1) if basis is None else basis, maximal)


@lru_cache(maxsize=32)
def _power_basis(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The power basis of a field of degree n, the rows of the n x n
    identity; the one basis NumberField takes as nonsingular unchecked."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _screen_irreducible(field: NumberField):
    """Cheap sanity screen of a new field's defining polynomial f; rejects
    only on a positive proof of reducibility: a repeated factor
    (Res(f, f') = +-disc f is 0), then, for degree > 1, divisibility by x and a
    rational root. Any other reducible polynomial (x^4 + 3x^2 + 2, say) is
    accepted: irreducibility stays the caller's assertion until an exact
    certificate replaces this screen."""
    f, n = field.defining_poly, field.degree
    disc, _ = _resultant(f, [i * f[i] for i in range(1, n + 1)])
    if disc == 0:
        raise SquarefreeError("defining polynomial has a repeated factor")
    if n > 1:
        if f[0] == 0:
            raise FormatError("defining polynomial is divisible by x")
        root = _integer_root(f, disc)
        if root is not None:
            raise FormatError(f"defining polynomial has rational root {root}")


def _integer_root(f: tuple[int, ...], disc: int):
    """The integer root r of the monic f (its only possible rational roots)
    with the least |r|, positive first, or None; disc != 0 is +-disc f.

    Modulo the least prime p not dividing disc the roots of f are simple, so
    each lifts uniquely mod p^(2^k) by Newton steps (Hensel). An integer root
    has |r| <= bound = 1 + max |f_i| (Cauchy), so it is the symmetric residue
    of its lift once p^(2^k) > 2 * bound; each such residue is tested exactly.
    """
    p = 2
    while disc % p == 0 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    df = [i * f[i] for i in range(1, len(f))]
    bound = 1 + max(abs(c) for c in f)
    roots = []
    for r in range(p):
        if _horner(f, r) % p:
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _horner(f, r) * pow(_horner(df, r), -1, m)) % m
        if r > m // 2:
            r -= m
        if _horner(f, r) == 0:
            roots.append(r)
    return min(roots, key=lambda r: (abs(r), r < 0), default=None)


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# embeddings

@dataclass(frozen=True)
class EmbeddingSet:
    """Certified roots (mpc) of the defining polynomial, closed under exact
    conjugation; the conjugation pairing and the signature are read off them.

    Ordering is deterministic: real roots first sorted by value, then complex
    roots sorted by (real part, imaginary part). The representative of a
    pair is its member with positive imaginary part.
    """

    field: NumberField
    precision: int
    roots: tuple

    @cached_property
    def conjugation_pairing(self) -> tuple[int, ...]:
        """Per root, the index of its exact conjugate (re, mpf_neg(im)), which
        mp.conj would round; DomainError when a root has none."""
        index = {z._mpc_: i for i, z in enumerate(self.roots)}
        try:
            return tuple(index[re, mpf_neg(im)] for re, im in (z._mpc_ for z in self.roots))
        except KeyError:
            raise DomainError("roots are not closed under complex conjugation") from None

    @cached_property
    def signature(self) -> tuple[int, int]:
        return len(self.real_indices), len(self.pair_representatives)

    @property
    def degree(self) -> int:
        return len(self.roots)

    @cached_property
    def real_indices(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.conjugation_pairing) if i == j)

    @cached_property
    def pair_representatives(self) -> tuple[int, ...]:
        return tuple(i for i, z in enumerate(self.roots) if z.imag > 0)

    @cached_property
    def class_representatives(self) -> tuple[int, ...]:
        """One index per conjugacy class: all real, then one per pair."""
        return self.real_indices + self.pair_representatives

    def is_real(self, index: int) -> bool:
        return self.conjugation_pairing[index] == index

    def conjugate_index(self, index: int) -> int:
        return self.conjugation_pairing[index]

    @property
    def working_dps(self) -> int:
        return working_dps(self.precision)

    @cached_property
    def working_prec(self) -> int:
        return working_prec(self.precision)

    @cached_property
    def float_roots(self) -> tuple:
        """The roots as Python doubles, converted once: a float at a real root,
        a complex at the others; a root beyond the double range is infinite."""
        return tuple(complex(z) if z.imag else float(z.real) for z in self.roots)

    @cached_property
    def root_radii(self) -> tuple:
        """Per embedding, a radius about the stored root z that holds a root
        of f: f'(z)/f(z) = sum_j 1/(z - z_j), so some root lies within
        n |f(z)| / |f'(z)|. |f(z)| is bounded by its computed value plus the
        Horner rounding bound 8(n+1) u sum |a_i| |z|^i, u the unit roundoff
        of the working precision, and the quotient is doubled to cover the
        rounding of f'(z)."""
        n = self.degree
        prec = self.working_prec
        with mp.workdps(self.working_dps):
            f, df, moduli = _root_operands(self.field.defining_poly, prec)
            rounding = 8 * (n + 1) * mpf(2) ** (1 - prec)
            return tuple(2 * n * (abs(_horner_mp(f, z, prec)) + rounding * _horner_mp(moduli, abs(z), prec))
                         / abs(_horner_mp(df, z, prec)) for z in self.roots)

    def invariant_vector(self, value) -> tuple:
        """Per-embedding tuple of value(idx) at working precision, evaluated
        once per conjugacy class and copied onto the partner embedding, so
        conjugation invariance holds by construction."""
        out = [None] * self.degree
        with mp.workdps(self.working_dps):
            for idx in self.class_representatives:
                out[idx] = out[self.conjugation_pairing[idx]] = value(idx)
        return tuple(out)

    def check_invariant(self, values, what: str):
        """DomainError unless values has one entry per embedding and
        conjugate entries are equal; `what` names the vector in the message."""
        if len(values) != self.degree:
            raise DomainError(f"{what} must supply one value per embedding")
        if any(values[i] != values[j] for i, j in enumerate(self.conjugation_pairing)):
            raise DomainError(f"{what} is not conjugation invariant")


@lru_cache(maxsize=32)
def embeddings(field: NumberField, precision: int) -> EmbeddingSet:
    """Compute all complex embeddings of the field at the given precision.

    Roots come from simultaneous (Aberth) iteration started at perturbed
    points on a circle of Cauchy-bound radius, with Horner's rule on the
    integer kernel of evaluate (_horner_mp). Every root z, before and after
    its Newton polish, is certified by a backward error of 10^(-precision):
    |f(z)| < 10^(-precision) * max(1, sum |f_i| |z|^i), which the kernel's
    rounding error, at most 8(n+1) u sum |f_i| |z|^i at the unit roundoff u
    of the working precision, cannot reach however large f's coefficients.
    Results are memoized per (field, precision), the one embedding cache of
    the package; an EmbeddingSet is immutable, so every caller can share it.
    """
    wp, prec = working_dps(precision), working_prec(precision)
    n, coeffs = field.degree, field.defining_poly

    with mp.workdps(wp):
        f, df, moduli = _root_operands(coeffs, prec)
        roots = [mpc(-coeffs[0], 0)] if n == 1 else _aberth(coeffs, f, df, wp)
        tol_resid = mpf(10) ** (-precision)

        def certified(z):
            return abs(_horner_mp(f, z, prec)) < tol_resid * max(1, _horner_mp(moduli, abs(z), prec))

        if not all(map(certified, roots)):
            raise PrecisionError(
                "root residual exceeds certification bound; retry at higher precision")

        min_sep = min((abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n)),
                      default=mpf(1))
        if min_sep < tol_resid * 1000:
            raise PrecisionError("root separation below tolerance at requested precision")

        # real roots are polished on the real line, a pair from its Im > 0 member
        polished = []
        for i, z in enumerate(roots):
            dists = [abs(mp.conj(z) - w) for w in roots]
            j = min(range(n), key=dists.__getitem__)
            if dists[j] > min_sep / 4:
                raise PrecisionError("conjugation matching failed; retry at higher precision")
            if j == i:
                polished.append(mpc(_newton(f, df, mp.re(z), prec), 0))
            elif mp.im(z) > 0:
                rep = _newton(f, df, z, prec)
                polished += [rep, mp.conj(rep)]
        if not all(map(certified, polished)):
            raise PrecisionError("polished root failed certification")

        # deterministic ordering: real roots first by value, then by (re, im)
        e = EmbeddingSet(field, precision,
                         tuple(sorted(polished, key=lambda z: (z.imag != 0, z.real, z.imag))))
        # only coinciding polished roots can leave a root that is no partner
        if any(e.conjugation_pairing[j] != i for i, j in enumerate(e.conjugation_pairing)):
            raise PrecisionError("conjugation pairing is not an involution")
    return e


def _horner(coeffs, z):
    """Horner's rule on ints or doubles; mpmath values take _horner_mp."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _root_operands(coeffs: tuple[int, ...], prec: int) -> tuple[list, list, list]:
    """f, f' and the moduli |f_i| as _horner_mp operands at prec bits, each
    integer coefficient rounded as mpf(c) rounds it."""
    f = [_round(c, 0, prec) for c in coeffs]
    df = [_round(i * c, 0, prec) for i, c in enumerate(coeffs) if i]
    return f, df, [(abs(m), k) for m, k in f]


def _newton(f, df, z, prec: int):
    """Eight Newton steps on f and f'; a real start stays on the real line."""
    for _ in range(8):
        fz = _horner_mp(f, z, prec)
        dz = _horner_mp(df, z, prec)
        if dz == 0:
            break
        z = z - fz / dz
    return z


def _aberth(coeffs: tuple[int, ...], f, df, wp: int) -> list:
    """Simultaneous root iteration for a monic squarefree integer polynomial,
    with f and f' as _horner_mp operands at wp digits."""
    n = len(coeffs) - 1
    prec = mp.prec
    radius = 1 + mpf(max(abs(c) for c in coeffs[:-1]))
    # perturbed roots-of-unity start; the fixed offset breaks symmetry
    z = [radius * mp.exp(mpc(0, 2 * mp.pi * (k + mpf("0.397")) / n + mpf("0.7")))
         for k in range(n)]
    target = mpf(10) ** (-(wp - 3))
    for _ in range(1000):
        max_step = mpf(0)
        for i in range(n):
            zi = z[i]
            fz = _horner_mp(f, zi, prec)
            dz = _horner_mp(df, zi, prec)
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
            scale = 1 + abs(zi)
            rel = abs(step) / scale
            if rel > max_step:
                max_step = rel
        if max_step < target:
            return z
    raise PrecisionError("root iteration failed to converge")


def evaluate(a: FieldElement, e: EmbeddingSet) -> tuple:
    """Numerical values of a at every embedding, in embedding order: Horner's
    rule on the integer kernel (_horner_mp) once per conjugacy class, at the
    working precision, so the values are mpmath's Horner values on mpf and
    mpc, bit for bit. An integer coefficient is rounded as mpf(c), a
    coefficient p/q with q > 1 is mpf(p) / mpf(q). The value at a real
    embedding is exactly real; the partner of a pair representative gets
    the exact conjugate (mpf_neg, which does not round): its root is the
    exact conjugate and the coefficients are real, so that copy is bit for
    bit the Horner value at the partner root.
    """
    if a.field != e.field:
        raise DomainError("element and embedding set belong to different fields")
    prec = e.working_prec
    if a.den == 1:
        coeffs = [_round(c, 0, prec) for c in a.num]
    else:
        coeffs = [_signed(mpf_div(from_int(c.numerator, prec, round_nearest),
                                  from_int(c.denominator, prec, round_nearest),
                                  prec, round_nearest))
                  for c in a.coeffs]
    while len(coeffs) > 1 and not coeffs[-1][0]:
        coeffs.pop()  # a leading zero only passes the next coefficient on
    out = [None] * e.degree
    for idx in e.class_representatives:
        out[idx] = value = _horner_mp(coeffs, e.roots[idx], prec)
        partner = e.conjugation_pairing[idx]
        if partner != idx:
            real, imag = value._mpc_
            out[partner] = mp.make_mpc((real, mpf_neg(imag)))
    return tuple(out)


def _horner_mp(coeffs, z, prec: int):
    """Horner's rule at the mpf or mpc z, for the polynomial with ascending
    coefficients coeffs given as (signed mantissa, exponent) pairs: the one
    Horner loop on multiprecision values, in Python integers, whose value
    (of z's type) is mpmath's Horner value on mpf and mpc at prec bits, bit
    for bit. Every step rounds to nearest, ties to even, exactly as the
    mpmath operation it stands for:
    - at z = x + iy with y != 0, re = RN(ar x - ai y) and im = RN(ar y + ai x)
      from exact products, as mpc_mul rounds, then re = RN(re + c), as
      mpc_add_mpf;
    - at a real z (y = 0), RN(acc * x), then RN(acc + c), as mpf_mul and
      mpf_add: the same step, whose imaginary part stays exactly 0;
    - every rounded sum takes mpf_add's shortcut for far-apart operands
      (_add), which can round differently from the exact sum.
    """
    (sx, x, ex, _), (sy, y, ey, _) = (z._mpf_, fzero) if isinstance(z, mpf) else z._mpc_
    x, y = -x if sx else x, -y if sy else y
    (re, kr), im, ki = coeffs[-1], 0, 0
    for c, ce in coeffs[-2::-1]:
        if y:
            (re, kr), (im, ki) = (_add(re * x, kr + ex, -im * y, ki + ey, prec),
                                  _add(re * y, kr + ey, im * x, ki + ex, prec))
        else:
            re, kr = _round(re * x, kr + ex, prec)
        if c:
            re, kr = _add(re, kr, c, ce, prec)
    real = _unsigned(re, kr)
    return mp.make_mpf(real) if isinstance(z, mpf) else mp.make_mpc((real, _unsigned(im, ki)))


def _round(m: int, k: int, prec: int) -> tuple[int, int]:
    """m * 2^k rounded to prec bits, to nearest with ties to even, as
    mpmath's normalize rounds a mantissa: (m', k') with m' odd, or (0, 0)."""
    return _add(m, k, 0, 0, prec)


def _add(a: int, ka: int, b: int, kb: int, prec: int) -> tuple[int, int]:
    """a * 2^ka + b * 2^kb rounded to prec bits as mpmath's mpf_add rounds
    it, for odd (or zero) a and b; b = 0 rounds a alone (_round). When the
    exponents differ by more than 100 and the magnitudes by more than
    prec + 4 bits, the larger operand is shifted left by prec + 4 bits and
    moved one unit toward the sign of the smaller, then rounded; otherwise
    the exact sum is rounded once, to nearest with ties to even. The result
    (m, k) has m odd, or is (0, 0)."""
    if not b:
        m, k = a, ka
    elif not a:
        m, k = b, kb
    else:
        if ka < kb:
            a, ka, b, kb = b, kb, a, ka
        offset = ka - kb
        if offset > 100 and a.bit_length() + offset - b.bit_length() > prec + 4:
            m, k = (a << (prec + 4)) + (1 if b > 0 else -1), ka - prec - 4
        else:
            m, k = (a << offset) + b, kb
    if not m:
        return 0, 0
    n = m.bit_length() - prec
    if n > 0:
        h = -m if m < 0 else m
        t = h >> (n - 1)
        h = (t >> 1) + 1 if t & 1 and (t & 2 or h & ((1 << (n - 1)) - 1)) else t >> 1
        m = -h if m < 0 else h
        k += n
    if not m & 1:
        t = (m & -m).bit_length() - 1
        m >>= t
        k += t
    return m, k


def _signed(v) -> tuple[int, int]:
    """The finite mpf tuple v as (signed mantissa, exponent)."""
    sign, man, exp, _ = v
    return (-man if sign else man), exp


def _unsigned(m: int, k: int) -> tuple:
    """The mpf tuple of m * 2^k, m odd or 0."""
    if not m:
        return fzero
    h = MPZ(-m if m < 0 else m)
    return (int(m < 0), h, k, h.bit_length())
