"""Multiplicative relation lattices among field units, exterior squares of
finitely generated abelian groups, the wedge map lambda -> lambda ^ (1-lambda),
and the kernel of formal sums under that map.

Relations are discovered numerically: LLL (Cohen, Alg. 2.6.7) on a scaled
logarithmic embedding, which one loop (_columns) takes from values in doubles
first (scale 10^12), and at the working precision when that search fails. Of
the r1 + r2 log-modulus columns, one per conjugacy class of embeddings, the
product formula fixes the last; one argument column, with one row absorbing
its whole turns, suffices, as a unit whose conjugates all have modulus 1 is a
root of unity (Kronecker) and an embedding is injective on those. Each LLL
row is proved by exact field multiplication, without inverting (the product
over positive exponents must equal that over negative ones), then the proved
rows are reduced to their HNF basis, which is stored. The torsion
order, read off the Smith invariants of the basis, is proved the same way on
powers of the two sign-split products of a torsion generator, whose exponents
are solved once per relation basis, beside its Smith form. Last, the lattice
is proved complete: the log-modulus vectors of as many generators as the
presented group has free rank are shown independent by one minor, evaluated
at the precision of the pass, against an a priori error bound (Pohst and
Zassenhaus, Algorithmic Algebraic Number Theory, 1989), so no relation is
missing. A relation that floating error hides raises PrecisionError; none is
invented.
Exterior squares keep their torsion and are read off the Smith form
U L V = diag(d_1, ..., d_k) of the relation basis L itself: x -> xV takes
the presented group to the sum of the Z/d_i (d_i = 0 a free coordinate);
Lambda^2 Z/a = 0 and Z/a (x) Z/b = Z/gcd(a, b), so the exterior square is
the sum over pairs i < j of Z/gcd(d_i, d_j), and pair coordinate (i, j) of
u ^ v is a_i b_j - a_j b_i (_raw_wedge) on a = uV, b = vV, mod gcd(d_i, d_j).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .errors import DomainError, PrecisionError, PresentationIncompleteError, quoted
from .intmat import (_fraction_free, det_fraction, hnf, identity, in_lattice, left_kernel,
                     lll, snf)
from .nf import (EmbeddingSet, FieldElement, _horner, _prime_divisors, _vec_mat, embeddings,
                 evaluate)
from .precision import DEFAULT_DIGITS, GUARD_DIGITS

DEFAULT_EXPONENT_BOUND = 64
FLOAT_DIGITS = 12  # the double search: scale 10^12, residual threshold 10^6


@dataclass(frozen=True)
class MultiplicativePresentation:
    """A finitely generated subgroup of the unit group, by generators and a
    canonical (HNF) basis of their exact multiplicative relations."""

    generators: tuple[FieldElement, ...]
    relation_basis: tuple[tuple[int, ...], ...]
    torsion_order: int
    precision: int

    @property
    def rank(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# relation discovery

def _columns(rows, log, phase, turn):
    """(log-modulus rows, argument/2pi rows) of rows of values v at the class
    representatives: log(|v|) and phase(v) / turn; DomainError when v = 0."""
    logs, args = [], []
    for row in rows:
        lrow, arow = [], []
        for value in row:
            if not value:
                raise DomainError("zero element has no logarithmic embedding")
            lrow.append(log(abs(value)))
            arow.append(phase(value) / turn)
        logs.append(lrow)
        args.append(arow)
    return logs, args


def _float_columns(elems, e: EmbeddingSet):
    """The _columns of the elements in doubles: Horner's rule on the
    coefficients as floats at EmbeddingSet.float_roots, then math.log and
    cmath.phase. None when a coefficient overflows a double or a value is
    not a finite nonzero double."""
    points = [e.float_roots[idx] for idx in e.class_representatives]
    try:
        rows = [[_horner(coeffs, z) for z in points]
                for coeffs in ([c / g.den for c in g.num] for g in elems)]
        logs, args = _columns(rows, math.log, cmath.phase, math.tau)
    except (OverflowError, DomainError):
        return None
    return (logs, args) if all(math.isfinite(v) for row in logs + args for v in row) else None


def _embedding_columns(elems, e: EmbeddingSet):
    """The _columns of evaluate's values; call it inside mp.workdps(e.working_dps)."""
    return _columns((map(evaluate(g, e).__getitem__, e.class_representatives) for g in elems),
                    mp.log, mp.arg, 2 * mp.pi)


def _nint(x) -> int:
    """x rounded to the nearest integer: a double by round, an mpf by
    mp.nint at its working precision (round would go through a double)."""
    return round(x) if isinstance(x, float) else int(mp.nint(x))


def _search_lattice(logs, args, digits: int) -> list[list[int]]:
    """The k + 1 rows LLL searches for relations among k elements: per
    element its unit vector, then its logs at the first r1 + r2 - 1 classes
    and its arg at the first, scaled by 10^digits and rounded; then one row
    of 10^digits, absorbing whole turns. Over mpf columns it must run at
    their working precision."""
    scale = 10 ** digits
    k, free = len(logs), len(logs[0]) - 1
    rows = [[1 if j == i else 0 for j in range(k)]
            + [_nint(scale * v) for v in logs[i][:free] + args[i][:1]]
            for i in range(k)]
    return rows + [[0] * (k + free) + [scale]]


def _relation_candidates(logs, args, digits: int):
    """(candidates, dropped): the exponent vectors of candidate relations,
    the LLL-reduced rows of _search_lattice whose r1 + r2 residuals are at
    most 10^(digits // 2) and whose exponents are within DEFAULT_EXPONENT_BOUND,
    and whether a vector within the residual threshold was dropped for its
    exponents alone. _verified_basis proves each candidate row as it stands."""
    k = len(logs)
    threshold = 10 ** (digits // 2)
    out, dropped = [], False
    for v in lll(_search_lattice(logs, args, digits)):
        exps, resid = v[:k], v[k:]
        if any(exps) and max(abs(r) for r in resid) <= threshold:
            if max(abs(x) for x in exps) <= DEFAULT_EXPONENT_BOUND:
                out.append(exps)
            else:
                dropped = True
    return out, dropped


def _verified_basis(elems, candidates) -> list[list[int]]:
    """HNF basis of the lattice spanned by the candidate rows, each proved
    first, as its exponents are shorter than the HNF's, a relation among
    elems: the product of g_i^e_i over e_i > 0 must equal that of g_i^-e_i
    over e_i < 0, else PrecisionError (retry with more digits)."""
    for row in candidates:
        pos, neg = _sign_split(elems, row)
        if pos != neg:
            raise PrecisionError(
                "numerically discovered relation failed exact verification; "
                "retry at higher precision")
    return hnf(candidates)


def _proved_lattice(elems, precision: int) -> tuple[list[list[int]], int]:
    """(HNF basis, torsion order) of the whole relation lattice of the units
    elems, proved: the rows by _verified_basis, the torsion order by
    _certify_torsion and completeness by _prove_rank. Discovery runs on
    double columns (_float_columns, scale 10^FLOAT_DIGITS) first; when they
    do not exist or any proof fails, it runs again on the working-precision
    columns (_embedding_columns, scale 10^(precision - guard)) inside its
    mp.workdps, whose failure raises PrecisionError. Each pass hands the
    rank proof its evaluator, _double_log_moduli or _mp_log_moduli."""
    e = embeddings(elems[0].field, precision)
    columns = _float_columns(elems, e)
    if columns is not None:
        try:
            return _complete_basis(elems, columns, FLOAT_DIGITS, e, _double_log_moduli)
        except PrecisionError:
            pass
    with mp.workdps(e.working_dps):
        return _complete_basis(elems, _embedding_columns(elems, e),
                               precision - GUARD_DIGITS, e, _mp_log_moduli)


def _complete_basis(elems, columns, digits: int, e: EmbeddingSet, log_moduli):
    """(basis, torsion order) of one search on columns scaled by 10^digits,
    with every proof of _proved_lattice, the rank proof by the pass's
    log_moduli; PrecisionError when one fails, naming DEFAULT_EXPONENT_BOUND
    when the search dropped a vector for its exponents alone."""
    logs, args = columns
    candidates, dropped = _relation_candidates(logs, args, digits)
    try:
        basis = _verified_basis(elems, candidates)
        torsion = _certify_torsion(elems, basis)
        _prove_rank(elems, basis, logs, e, log_moduli)
    except PrecisionError as err:
        if not dropped:
            raise
        raise PrecisionError(
            "the relation lattice may be incomplete: a relation with an exponent "
            f"beyond the exponent bound {DEFAULT_EXPONENT_BOUND} was found and dropped, "
            "as it is at any precision, so more digits will not help") from err
    return basis, torsion


def _prove_rank(elems, basis, logs, e: EmbeddingSet, log_moduli):
    """Prove that the proved relation lattice L (HNF basis `basis`) is the
    whole relation lattice Lambda of elems, or raise PrecisionError.

    Let r = k - rank(L). If the k x (r1 + r2) matrix M of log|sigma(g_i)|
    has rank >= r, Lambda, which M annihilates, has rank <= k - r, so
    Lambda / L is finite. It then lies in the torsion of Z^k / L, which
    _certify_torsion proved cyclic of order w with a generator of exact
    order w in K^*, so it maps injectively and Lambda / L, the kernel, is
    trivial. r = 0 needs nothing more; r > r1 + r2 - 1, the unit rank,
    fails, since M has rank at most that by the product formula.

    Otherwise r generator rows and r class columns are chosen by complete
    pivoting on a float copy of `logs`, which picks the pivots and nothing
    else: the proof evaluates those r generators itself with log_moduli,
    the evaluator its pass hands it, _double_log_moduli in doubles or
    _mp_log_moduli at the working precision the pass holds. The r x r minor
    of their computed logs, each within eta of the true log
    (_log_modulus_error), is shown nonsingular by _certainly_nonsingular; a
    failure in doubles sends _proved_lattice on to the working-precision
    pass.

    Error bound. Let g = sum c_i x^i (i < n) have rational coefficients,
    |c|_1 = sum |c_i|, and let u be the pass's unit: 2^-53 in doubles,
    2^(1-prec) at the working precision (twice mpmath's unit roundoff).
    The pass takes v, g at a point z by Horner's rule, with z within R of a
    root t of f. At the working precision z is the stored root and
    R = root_radii[idx]. In doubles z is its double float_roots[idx], each
    part rounded to nearest, so within 2^-53 |z| + 2^-1074 of it (2^-1075
    per part below the normal range), and R = 2 delta + 2^-52 |z| + 2^-1000
    with delta the double of root_radii[idx]: the factors 2 and the 2^-1000
    cover the roundings of delta, |z| and the sums. With rho = max(1, |z| + R):
    - |g(t) - g(z)| <= (n-1) R |c|_1 rho^(n-1) by the mean value theorem,
      as |g'| <= (n-1) |c|_1 rho^(n-2) on the disc;
    - |v - g(z)| <= 4nu |c|_1 rho^(n-1). v = sum c_i z^i (1 + theta_i): each
      c_i is rounded (once; evaluate rounds p/q thrice, at u/2 each), then
      meets at most n-1 sums, within u, and n-1 products, within sqrt(5) u
      (a complex product in doubles: Brent, Percival and Zimmermann, Math.
      Comp. 2007) or u/2 (mpmath rounds each part of the exact product), so
      |theta_i| <= (1 + u)^n (1 + sqrt(5) u)^(n-1) - 1 < 4nu (Higham,
      Accuracy and Stability of Numerical Algorithms, 5.1). In doubles an
      operation below the normal range errs by up to 2^-1072 more, and the
      3n such errors stay under 2^-953 rho^(n-1), which taking |c|_1 as at
      least 2^-900 there covers; mpmath has no exponent range.
    So |g(t) - v| <= E = |c|_1 rho^(n-1) ((n-1) R + 8(n+1) u). Unless
    E <= |v| / 2 (else PrecisionError, as for v = 0 or an infinite double),
    q = E / |v| <= 1/2, so |g(t)| / |v| lies in [1 - q, 1 + q] and
    |log|g(t)| - log|v|| <= -log(1 - q) <= 2 log(2) q < 1.39 q. |v| is taken
    by abs and then log. mpmath's abs is correctly rounded; its log, and the
    platform's hypot and log, are assumed within one ulp: u relative at the
    working precision, 2u in doubles. So they add at most
    2u (1 + |log|v||) + 5u^2 (1 + |log|v||), and eta = 2q + 2u (1 + |log|v||)
    bounds the error with 0.61 q > 4.8 (n+1) u / (1 + 5nu) to spare, since
    |v| <= (1 + 5nu) |c|_1 rho^(n-1). As u |log|v|| < 1, that spare exceeds
    the u^2 term and the roundings made in forming eta, a relative O(nu) of
    it, pow's included (assumed within one ulp too).

    Assumption about the embedding certificate: each stored root lies
    within EmbeddingSet.root_radii of a root of f, a radius derived from
    its computed residual and derivative; which root it is does not matter,
    since M over any embeddings is annihilated by Lambda.
    """
    r = len(elems) - len(basis)
    if r == 0:
        return
    r1, r2 = e.signature
    if r > r1 + r2 - 1:
        raise PrecisionError(
            f"relations of {len(elems)} units span rank {len(basis)}, short of "
            f"{len(elems) - (r1 + r2 - 1)}: the relation lattice is incomplete, "
            "retry at higher precision")
    rows, cols = _pivots(logs, r)
    reps = [e.class_representatives[j] for j in cols]
    minor = [log_moduli(elems[i], reps, e) for i in rows]
    if not _certainly_nonsingular([[value for value, _ in row] for row in minor],
                                  max(eta for row in minor for _, eta in row)):
        raise PrecisionError(
            "log-modulus minor does not exceed its error bound: the "
            "relation lattice may be incomplete, retry at higher precision")


def _pivots(logs, r: int) -> tuple[list[int], list[int]]:
    """r row and r column indices of the matrix logs, chosen by Gaussian
    elimination with complete pivoting on a float copy; PrecisionError when
    a pivot is zero or not finite."""
    a = [[float(v) for v in row] for row in logs]
    rows, cols = [], []
    for _ in range(r):
        i, j = max(((i, j) for i in range(len(a)) if i not in rows
                    for j in range(len(a[0])) if j not in cols),
                   key=lambda ij: abs(a[ij[0]][ij[1]]))
        pivot = a[i][j]
        if pivot == 0 or not math.isfinite(pivot):
            raise PrecisionError("log-modulus matrix has no pivot left")
        rows.append(i)
        cols.append(j)
        for t in range(len(a)):
            if t not in rows:
                f = a[t][j] / pivot
                a[t] = [x - f * y for x, y in zip(a[t], a[i])]
    return rows, cols


def _double_log_moduli(g: FieldElement, reps, e: EmbeddingSet) -> list:
    """_log_modulus_error of g at each embedding idx in reps, in doubles:
    _horner on g's coefficients as doubles at z = float_roots[idx], with R
    of _prove_rank."""
    coeffs = [c / g.den for c in g.num]
    norm1 = max(sum(map(abs, coeffs)), 2 ** -900)
    return [_log_modulus_error(_horner(coeffs, z), z,
                               2 * float(e.root_radii[idx]) + 2 ** -52 * abs(z) + 2 ** -1000,
                               norm1, e.degree, 2 ** -53, math.log)
            for idx in reps for z in [e.float_roots[idx]]]


def _mp_log_moduli(g: FieldElement, reps, e: EmbeddingSet) -> list:
    """_log_modulus_error of g at each embedding idx in reps, at the
    working precision: evaluate's value at the stored root, with R =
    root_radii[idx]; call it inside mp.workdps(e.working_dps)."""
    conjugates = evaluate(g, e)
    norm1 = mpf(sum(abs(c) for c in g.num)) / g.den
    u = mpf(2) ** (1 - mp.prec)
    return [_log_modulus_error(conjugates[idx], e.roots[idx], e.root_radii[idx], norm1,
                               e.degree, u, mp.log) for idx in reps]


def _log_modulus_error(value, z, radius, norm1, n: int, u, log):
    """(log|value|, eta) by the error bound of _prove_rank: value is g
    computed at z, a root of f lies within radius R of z, norm1 is |c|_1
    of g, n the degree, u the pass's unit and log its logarithm;
    PrecisionError unless E <= |value| / 2."""
    rho = max(1, abs(z) + radius)
    bound = norm1 * rho ** (n - 1) * ((n - 1) * radius + 8 * (n + 1) * u)
    modulus = abs(value)
    if not 2 * bound <= modulus < math.inf:
        raise PrecisionError("logarithm too ill-conditioned to bound")
    log_value = log(modulus)
    return log_value, 2 * bound / modulus + 2 * u * (1 + abs(log_value))


def _certainly_nonsingular(a, eta) -> bool:
    """Whether every r x r matrix A within eta of the matrix a, entry by
    entry, is nonsingular; a and eta hold doubles or mpfs, read as the
    dyadic rationals they are (_exact). By the multilinearity of det and
    Hadamard's inequality, |det a - det A| <= B = s sum_j prod_{i != j}
    (|a_i|_1 + s) over the rows a_i, with s = ceil(sqrt(r)) eta and the
    1-norm over the 2-norm. B is exact, so the test is |det a| > B."""
    r = len(a)
    a = [[_exact(v) for v in row] for row in a]
    s = (math.isqrt(r - 1) + 1) * _exact(eta)
    norms = [sum(map(abs, row)) + s for row in a]
    bound = s * sum(math.prod(norms[:j] + norms[j + 1:]) for j in range(r))
    return abs(det_fraction(a)) > bound


def _exact(v) -> Fraction:
    """The double or binary mpf v as an exact Fraction, sign included."""
    return Fraction(v) if isinstance(v, float) else Fraction(*to_rational(v._mpf_))


def relation_lattice(elems, precision: int = DEFAULT_DIGITS) -> MultiplicativePresentation:
    """Find the multiplicative relation lattice of a list of units.

    The HNF basis, its torsion order and its completeness are proved by
    _proved_lattice; a failed proof raises PrecisionError (retry with more
    digits, unless the message names the exponent bound, which no
    precision lifts), so a returned presentation misses no relation.
    """
    elems = list(elems)
    if not elems:
        return MultiplicativePresentation((), (), 1, precision)
    field = elems[0].field
    for g in elems:
        if g.field != field:
            raise DomainError("generators live in different fields")
        if not g.is_unit():
            raise DomainError(f"generator {quoted(g)} is not a unit")

    basis, torsion = _proved_lattice(elems, precision)
    return MultiplicativePresentation(
        tuple(elems), tuple(tuple(r) for r in basis), torsion, precision)


def power_product(elems, exponents) -> FieldElement:
    """Exact product of elems[i] ** exponents[i] over the nonzero exponents,
    started from the first factor, never from 1; one() when all are 0."""
    if len(exponents) != len(elems):
        raise DomainError("exponent vector has wrong length")
    factors = [g ** int(e) for g, e in zip(elems, exponents) if e]
    return reduce(mul, factors) if factors else elems[0].field.one()


def _sign_split(elems, exponents) -> tuple[FieldElement, FieldElement]:
    """(P, N): the products of elems[i] ** exponents[i] over the positive
    exponents and of elems[i] ** -exponents[i] over the negative ones, so the
    whole product is P / N, and it is 1 exactly when P == N; nothing is
    inverted."""
    return (power_product(elems, [max(e, 0) for e in exponents]),
            power_product(elems, [max(-e, 0) for e in exponents]))


def _is_root_of_one(pos, neg, n) -> bool:
    """(P / N)^n == 1, tested as P^n == N^n; when a side is 1 only the other
    side is powered, and compared with 1."""
    if neg.is_one():
        return (pos ** n).is_one()
    if pos.is_one():
        return (neg ** n).is_one()
    return pos ** n == neg ** n


@lru_cache(maxsize=256)
def _smith_form(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple, tuple | None]:
    """(invariants, V, x) of snf(rows), formed once per relation basis: the
    torsion proof and the exterior square both read it. When exactly one
    invariant d_i exceeds 1, x is row i of V^-1, the exponents of the
    torsion generator, solved as x V = e_i by one fraction-free elimination
    on V^T; V is unimodular, so det V = +-1 and x is integral. Otherwise x
    is None."""
    invariants, v = snf(rows)
    nontrivial = [i for i, d in enumerate(invariants) if d > 1]
    row = None
    if len(nontrivial) == 1:
        i = nontrivial[0]
        det, x = _fraction_free([list(col) + [int(j == i)] for j, col in enumerate(zip(*v))])
        row = tuple(det * c for (c,) in x)  # x V = det e_i, and 1 / det = det
    return tuple(invariants), tuple(map(tuple, v)), row


def _certify_torsion(elems, basis) -> int:
    """Order w of the torsion of Z^k modulo the relation basis, read off its
    Smith invariants and proved on the generator t = P / N of the torsion
    factor (_sign_split, formed once), whose exponents _smith_form solves
    beside the Smith form: t^w == 1 and t^(w/q) != 1 for each prime q | w
    (_is_root_of_one)."""
    if not basis:
        return 1
    invariants, _, generator = _smith_form(tuple(map(tuple, basis)))
    nontrivial = [d for d in invariants if d > 1]
    if not nontrivial:
        return 1
    if len(nontrivial) > 1:
        raise PrecisionError(
            "presented torsion is not cyclic; the relation lattice is "
            "incomplete, retry at higher precision")
    w = nontrivial[0]
    pos, neg = _sign_split(elems, generator)
    if not _is_root_of_one(pos, neg, w):
        raise PrecisionError("torsion certification failed")
    for q in _prime_divisors(w):
        if _is_root_of_one(pos, neg, w // q):
            raise PrecisionError("torsion order certification failed")
    return w


# ---------------------------------------------------------------------------
# exterior square

@dataclass(frozen=True)
class ExteriorSquare:
    """Exterior square of Z^k modulo a relation lattice in the pair
    coordinates of the module docstring: invariants[c] is gcd(d_i, d_j) of
    the c-th pair (i, j) of _pairs (0 marks a free coordinate), v_matrix
    the k x k Smith transform V. A class is the tuple of its pair
    coordinates reduced modulo the invariants (reduce_smith)."""

    rank: int
    invariants: tuple[int, ...]
    v_matrix: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.invariants)

    def wedge(self, u, v) -> tuple[int, ...]:
        """The class of u ^ v: the tuple of its reduced pair coordinates."""
        if len(u) != self.rank or len(v) != self.rank:
            raise DomainError("exponent vector has wrong length")
        return self.reduce_smith(_raw_wedge(*(_vec_mat(w, self.v_matrix) for w in (u, v))))

    def reduce_smith(self, y) -> tuple[int, ...]:
        """The class of pair coordinates y: the tuple of y mod the invariants."""
        return tuple(c % d if d > 0 else c for c, d in zip(y, self.invariants))


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i < j < k, of the basis e_i ^ e_j, in coordinate
    order."""
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


def _raw_wedge(u, v) -> list[int]:
    """The coordinates of u ^ v on the basis e_i ^ e_j, i < j, in _pairs
    order: u_i v_j - u_j v_i."""
    return [u[i] * v[j] - u[j] * v[i] for i, j in _pairs(len(u))]


@lru_cache(maxsize=256)
def exterior_square_of_lattice(k: int,
                               relation_rows: tuple[tuple[int, ...], ...]) -> ExteriorSquare:
    """Exterior square over the integers of Z^k modulo a relation lattice,
    torsion included, from the Smith form of the k-column relation rows."""
    d, v = _smith_form(relation_rows)[:2] if relation_rows else ([0] * k, identity(k))
    return ExteriorSquare(k, tuple(math.gcd(d[i], d[j]) for i, j in _pairs(k)),
                          tuple(tuple(row) for row in v))


def exterior_square(p: MultiplicativePresentation) -> ExteriorSquare:
    return exterior_square_of_lattice(p.rank, p.relation_basis)


# ---------------------------------------------------------------------------
# coordinates and the wedge map

def coordinates_of(elem: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """Exponent coordinates of elem over the presentation generators.

    Coordinates are read off the first row of the relation basis of elem
    and the generators, proved complete by _proved_lattice, so "not
    expressible" is a proved statement; exponents are capped by
    DEFAULT_EXPONENT_BOUND. They are well defined only up to the relation
    lattice, which is enough for wedge classes. DomainError for an element
    of another field than the generators'.
    """
    if p.rank and elem.field != p.generators[0].field:
        raise DomainError("element and generators live in different fields")
    if p.rank == 0:
        if elem.is_one():
            return ()
        raise PresentationIncompleteError("empty presentation expresses only 1")
    for i, g in enumerate(p.generators):
        if g == elem:
            return tuple(1 if j == i else 0 for j in range(p.rank))
    if elem.is_one():
        return tuple([0] * p.rank)

    if not elem.is_unit():
        raise DomainError("only units have coordinates in a unit presentation")
    basis, _ = _proved_lattice([elem] + list(p.generators), p.precision)
    if basis and basis[0][0] == 1:
        coords = tuple(-x for x in basis[0][1:])
        if max(abs(c) for c in coords) <= DEFAULT_EXPONENT_BOUND:
            return coords
        raise PresentationIncompleteError(
            "coordinates exceed the exponent-height bound")
    raise PresentationIncompleteError(
        f"element {quoted(elem)} is not expressible over the supplied generators")


def steinberg_image(lam: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """Class of lambda ^ (1 - lambda), the tuple ExteriorSquare.wedge gives.
    coordinates_of tests every non-generator for unit status (relation_lattice
    proved the generators units), so a lambda outside R-circ raises DomainError."""
    return exterior_square(p).wedge(coordinates_of(lam, p),
                                    coordinates_of(lam.field.one() - lam, p))


def bloch_kernel(candidates, p: MultiplicativePresentation) -> list[list[int]]:
    """Basis of the integer rows n over the candidates lambda whose sums
    sum n_i [lambda_i] have wedge images that cancel exactly (torsion included)."""
    return _bloch_kernels(candidates, p)[0]


def torsion_only_kernel(candidates, p: MultiplicativePresentation) -> list[list[int]]:
    """Rows over the candidates whose wedge images vanish modulo torsion but
    not exactly; these are flagged rather than treated as kernel members."""
    return _bloch_kernels(candidates, p)[1]


def _bloch_kernels(candidates, p: MultiplicativePresentation
                   ) -> tuple[list[list[int]], list[list[int]]]:
    """(bloch_kernel, torsion_only_kernel) of the candidates, both integer
    rows over them, from one list of Steinberg images."""
    candidates = list(candidates)
    if not candidates:
        return [], []
    images = [steinberg_image(lam, p) for lam in candidates]
    sq = exterior_square(p)
    free_cols = [j for j, d in enumerate(sq.invariants) if d == 0]
    free_kernel = left_kernel([[img[j] for j in free_cols] for img in images])
    strict_basis = _strict_kernel(images, sq)
    return strict_basis, [row for row in free_kernel if not in_lattice(row, strict_basis)]


def _strict_kernel(images, sq: ExteriorSquare) -> list[list[int]]:
    """HNF basis of the integer combinations of wedge classes that vanish
    exactly, each basis row re-verified against the torsion invariants.

    A modulus row is stacked for each coordinate of invariant d > 1 only:
    at d = 1 every reduced image is 0 there, so the row would only force
    its own multiplier to 0."""
    m = len(images)
    stacked = [list(img) for img in images]
    for j, d in enumerate(sq.invariants):
        if d > 1:
            stacked.append([d if c == j else 0 for c in range(sq.dim)])
    basis = hnf([row[:m] for row in left_kernel(stacked)])
    for row in basis:
        if not _wedge_sum_vanishes(row, images, sq):
            raise PrecisionError("kernel basis failed exact wedge verification")
    return basis


def _wedge_sum_vanishes(multiplicities, images, sq: ExteriorSquare) -> bool:
    """Whether sum n_i * image_i, in pair coordinates, is 0 modulo the
    invariants."""
    return not any(sq.reduce_smith(_vec_mat(multiplicities, images)))


def verify_bloch_element(support, multiplicities, p: MultiplicativePresentation) -> bool:
    """Exact check of the defining kernel condition for the formal sum
    sum n_i [lambda_i] of the multiplicities n over the support lambda;
    DomainError when their lengths differ."""
    if len(support) != len(multiplicities):
        raise DomainError("support and multiplicities differ in length")
    return _wedge_sum_vanishes(
        multiplicities, [steinberg_image(lam, p) for lam in support], exterior_square(p))
