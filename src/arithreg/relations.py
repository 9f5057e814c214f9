"""Multiplicative relation lattices among field units, exterior squares of
finitely generated abelian groups, the wedge map lambda -> lambda ^ (1-lambda),
and the kernel of formal sums under that map.

Relations are read off a proved basis of the group G that the generators
g_1, ..., g_k generate (_UnitBasis): a torsion generator zeta of exact order
w, and free units b_1, ..., b_r' whose log-modulus vectors are independent.
Then G = <zeta> x <b_1, ..., b_r'>, since a power product of the b_i with
zero logs has zero exponents, and zeta has exact order w; so each g_i has one
coordinate vector (a_i, e_i) in Z/w x Z^r' with g_i = zeta^a_i prod b^e_i,
and prod g_i^n_i = 1 exactly when sum n_i (a_i, e_i) = 0 in Z/w x Z^r'. The
relation lattice is that integer kernel of the coordinate rows, with a column
for Z/w, and is stored as its HNF; G is isomorphic to Z^k modulo it, so w is
its torsion order.

The generators are placed one at a time, in order of increasing log length.
A float solve of Log g against a pivoted log minor of the b_i gives e, the
argument of g prod b^-e at the first embedding gives a, and one exact
identity, g zeta^(w-a) prod b^-e = 1, proves them: it is tested without
inverting, as the product over the positive exponents against that over the
negative ones (_sign_split), and it proves g a unit. A g that fails it
enlarges G: it is proved a unit, and -1 as the first torsion is decided
directly ((-1)^2 = 1 != -1); a g whose log minor with the b_i is certified
nonsingular joins them as a free unit; and any other g runs one relation
search among g, zeta and the b_i, whose Smith form gives the new basis,
reduced by LLL on its log rows so that its exponents stay short.

The search is LLL (Cohen, Alg. 2.6.7) on a scaled logarithmic embedding. Of
the r1 + r2 log-modulus columns, one per conjugacy class of embeddings, the
product formula fixes the last; one argument column, with one row absorbing
its whole turns, suffices, as a unit whose conjugates all have modulus 1 is a
root of unity (Kronecker) and an embedding is injective on those. Each LLL
row is proved by exact field multiplication, without inverting, then the
proved rows are reduced to their HNF basis. The torsion order, read off the
Smith invariants of the basis, is proved on powers of the two sign-split
products of a torsion generator, whose exponents are solved once per basis,
beside its Smith form. Last, the small lattice is proved complete: the
log-modulus vectors of as many of its elements as it has free rank are
shown independent by one minor, evaluated at the precision of the pass,
against an a priori error bound (Pohst and Zassenhaus, Algorithmic Algebraic
Number Theory, 1989); the same minor test admits a free unit.

Each pass, placing and searching, runs on values in doubles first (search
scale 10^12), and at the working precision when a proof fails there. A
relation that floating error hides raises PrecisionError; none is invented.
Exterior squares keep their torsion and are read off a Smith form
U L V = diag(d_1, ..., d_k) of a relation lattice L: x -> xV takes Z^k / L to
the sum of the Z/d_i (d_i = 0 a free coordinate); Lambda^2 Z/a = 0 and
Z/a (x) Z/b = Z/gcd(a, b), so the exterior square is the sum over pairs
i < j of Z/gcd(d_i, d_j), and pair coordinate (i, j) of u ^ v is
a_i b_j - a_j b_i (_raw_wedge) on a = uV, b = vV, mod gcd(d_i, d_j). A
presentation's square is that of Z^(1 + r') modulo (w, 0, ..., 0), on the
basis coordinates: (Z/w)^r' + Lambda^2 Z^r'.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .errors import DomainError, PrecisionError, PresentationIncompleteError, quoted
from .intmat import (_integer_inverse, det_fraction, hnf, identity, in_lattice, left_kernel,
                     lll, snf)
from .nf import (EmbeddingSet, FieldElement, _horner, _prime_divisors, _vec_mat, embeddings,
                 evaluate)
from .precision import DEFAULT_DIGITS, GUARD_DIGITS

FLOAT_DIGITS = 12  # the double search: scale 10^12, residual threshold 10^6
FLOAT_ERROR = 1e-9  # double columns must hold each value to this relative error
SOLVE_TOLERANCE = 1e-6  # a float solve whose residual exceeds this places nothing


@dataclass(frozen=True)
class MultiplicativePresentation:
    """A finitely generated subgroup G of the unit group, by generators, a
    canonical (HNF) basis of their exact multiplicative relations, and a
    proved basis of G: units = (zeta, b_1, ..., b_r'), zeta of exact order
    torsion_order and the b_i free, so G = <zeta> x <b>. coordinates[i] =
    (a, e_1, ..., e_r') gives generator i as zeta^a prod b_j^e_j, and
    sections[j] gives units[j] as a power product of the generators. The
    basis is one choice among many, so equality ignores it."""

    generators: tuple[FieldElement, ...]
    relation_basis: tuple[tuple[int, ...], ...]
    torsion_order: int
    precision: int
    units: tuple[FieldElement, ...] = dataclasses.field(compare=False)
    coordinates: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False)
    sections: tuple[tuple[int, ...], ...] = dataclasses.field(compare=False)

    @property
    def rank(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# the proved unit basis

class _UnitBasis:
    """A proved basis [zeta, b_1, ..., b_r'] of a group of units, within one
    pass: zeta of exact order w (1 when w = 1), the b_i units with
    independent logs. logs holds the pass's log rows of the b_i, args the
    arguments in turns of zeta and the b_i at the first class representative,
    and sections their exponent rows over the generators; digits, e and
    log_moduli are the pass's."""

    def __init__(self, units, w: int, logs, args, sections, digits: int, e: EmbeddingSet,
                 log_moduli):
        self.units, self.w, self.logs, self.args = list(units), w, list(logs), list(args)
        self.sections = [list(s) for s in sections]
        self.digits, self.e, self.log_moduli = digits, e, log_moduli
        self._index()

    def _index(self):
        """The data of coordinates: the pivot columns of the b_i logs, chosen
        on doubles, and the inverse of their minor, exact on those doubles
        and then rounded (None when a pivot is zero or the minor singular),
        and the inverse mod w of j, where arg(zeta) = j / w turns;
        gcd(j, w) = 1 as zeta has exact order w and an embedding is
        injective on roots of unity, so PrecisionError otherwise."""
        self._inverse = None
        self._flogs = [[float(v) for v in row] for row in self.logs]
        try:
            _, self._cols = _pivots(self._flogs, len(self._flogs))
            m, den = _integer_inverse([[Fraction(row[c]) for c in self._cols]
                                       for row in self._flogs])
            self._inverse = [[x / den for x in row] for row in m]
        except (PrecisionError, ZeroDivisionError):
            pass
        j = round(self.w * float(self.args[0])) % self.w
        if math.gcd(j, self.w) != 1:
            raise PrecisionError("argument of the torsion generator not resolved")
        self._turn = pow(j, -1, self.w)

    def reduced(self, coords) -> tuple[int, ...]:
        """Coordinates with a taken into [0, w)."""
        return (coords[0] % self.w, *coords[1:])

    def coordinates(self, g: FieldElement, log, arg) -> tuple[int, ...] | None:
        """(a, e_1, ..., e_r') with g = zeta^a prod b_i^e_i, or None. e rounds
        the float solve e L = Log g on the pivot columns, and a = n / j mod w
        for the integer n nearest w t, t the argument of g prod b^-e; both
        are proved by the one exact identity g zeta^(w-a) prod b^-e = 1, as
        _sign_split's P == N. None, with no field arithmetic, when the solve
        has no inverse, its residual on some class exceeds SOLVE_TOLERANCE
        (1 + |Log g|), or w t is not that close to an integer; and None when
        the identity fails."""
        if self._inverse is None:
            return None
        log = [float(v) for v in log]
        rhs = [log[c] for c in self._cols]
        e = [sum(x * row[i] for x, row in zip(rhs, self._inverse)) for i in range(len(rhs))]
        if not all(map(math.isfinite, e)):
            return None
        e = [round(x) for x in e]
        tol = SOLVE_TOLERANCE * (1 + max(map(abs, log)))
        if any(abs(v - sum(x * row[c] for x, row in zip(e, self._flogs))) > tol
               for c, v in enumerate(log)):
            return None
        wt = self.w * (float(arg) - sum(x * float(t) for x, t in zip(e, self.args[1:])))
        n = round(wt)
        if abs(wt - n) > SOLVE_TOLERANCE:
            return None
        a = n * self._turn % self.w
        pos, neg = _sign_split([g] + self.units, [1, -a % self.w] + [-x for x in e])
        return (a, *e) if pos == neg else None

    def extend(self, g: FieldElement, log, arg, section) -> tuple[tuple[int, ...], list | None]:
        """Make the basis one of <G, g> for a unit g that coordinates did not
        place, whose exponent row over the generators is section: returns
        (coordinates of g, T), T the matrix that takes the coordinates of an
        element of G to the new basis (new = old T, a then taken mod w), or
        T = None when g was in G and the basis is kept. -1 with w = 1
        becomes zeta, of exact order 2; g joins the b_i when _independent
        proves its logs independent of theirs; otherwise _search decides."""
        r = len(self.logs)
        if self.w == 1 and (-g).is_one():
            self.units[0], self.w, self.args[0], self.sections[0] = g, 2, arg, list(section)
            self._index()
            return (1,) + (0,) * r, identity(r + 1)
        r1, r2 = self.e.signature
        if r < r1 + r2 - 1 and self._independent(g, log):
            self.units.append(g)
            self.logs.append(log)
            self.args.append(arg)
            self.sections.append(list(section))
            self._index()
            return (0,) * (r + 1) + (1,), [row + [0] for row in identity(r + 1)]
        return self._search(g, log, arg, section)

    def _independent(self, g: FieldElement, log) -> bool:
        """Whether the logs of b_1, ..., b_r', g are proved independent: the
        minor _certified_minor picks is certainly nonsingular. A minor that
        is not, or cannot be bounded, proves nothing, so False."""
        try:
            return _certified_minor(self.units[1:] + [g], self.logs + [log],
                                    len(self.logs) + 1, self.e, self.log_moduli)
        except PrecisionError:
            return False

    def _search(self, g: FieldElement, log, arg, section):
        """extend by the proved relation lattice of g, zeta, b_1, ..., b_r'
        (_complete_basis). When its HNF starts with a row (1, x), g =
        zeta^-x_0 prod b^-x_i and the basis stays. Otherwise its Smith form
        U L V = diag(d) gives the new basis: the rows of V^-1 at the invariant
        d > 1 (at most one, as _certify_torsion proved the torsion cyclic) and
        at the free invariants d = 0 are the exponents, over those elements,
        of the new zeta and free units, and an element's new coordinates are
        its row of V at those columns. LLL then reduces the free units on
        their log rows (_short_logs), a unimodular T, whose inverse moves the
        free coordinates. The lattice is never empty: it holds w e_zeta."""
        elems = [g] + self.units
        logs = [log, [0.0] * len(log)] + self.logs
        args = [[arg]] + [[t] for t in self.args]
        rows, _ = _complete_basis(elems, (logs, args), self.digits, self.e, self.log_moduli)
        if rows and rows[0][0] == 1:
            return self.reduced([-x for x in rows[0][1:]]), None
        d, v, inverse = _smith_form(tuple(map(tuple, rows)))
        torsion = [i for i, di in enumerate(d) if di > 1]
        free = [i for i, di in enumerate(d) if di == 0]
        free_rows = [inverse[i] for i in free]
        t = (_short_logs([_vec_mat(row, logs) for row in free_rows]) if len(free) > 1
             else identity(len(free)))
        t_inverse, _ = _integer_inverse(t)
        coords = [[row[torsion[0]] if torsion else 0]
                  + _vec_mat([row[i] for i in free], t_inverse) for row in v]
        unit_rows = [list(inverse[torsion[0]]) if torsion else [0] * len(elems)] + [
            _vec_mat(row, free_rows) for row in t]
        sections = [section] + self.sections
        self.units = [power_product(elems, row) for row in unit_rows]
        self.w = d[torsion[0]] if torsion else 1
        self.logs = [_vec_mat(row, logs) for row in unit_rows[1:]]
        self.args = [_vec_mat(row, args)[0] % 1 for row in unit_rows]
        self.sections = [_vec_mat(row, sections) for row in unit_rows]
        self._index()
        return self.reduced(coords[0]), coords[1:]


def _short_logs(logs) -> list[list[int]]:
    """A unimodular T whose rows T L have short log rows: the exponent part
    of the LLL-reduced rows [e_i | 10^(FLOAT_DIGITS / 2) Log_i] on the first
    r1 + r2 - 1 classes, rounded (over mpf rows, at their working precision)."""
    r, scale = len(logs), 10 ** (FLOAT_DIGITS // 2)
    rows = [[int(j == i) for j in range(r)] + [_nint(scale * v) for v in row[:-1]]
            for i, row in enumerate(logs)]
    return [row[:r] for row in lll(rows)]


def _place_all(elems, columns, digits: int, e: EmbeddingSet, log_moduli):
    """(basis, coordinate rows) of the units elems in one pass. Each
    generator, by increasing log length, is placed by
    _UnitBasis.coordinates or, proved a unit first, extends the basis,
    after which the coordinates found so far move to the new basis.
    DomainError names the first non-unit in generator order."""
    logs, args = columns
    k = len(elems)
    basis = _UnitBasis([elems[0].field.one()], 1, [], [0.0], [[0] * k], digits, e, log_moduli)
    coords = {}
    for i in sorted(range(k), key=lambda i: sum(v * v for v in logs[i])):
        g = elems[i]
        c = basis.coordinates(g, logs[i], args[i][0])
        if c is None:
            if not (-g).is_one() and not g.is_unit():  # (-1)^2 = 1: -1 is a unit
                _require_units(elems)
            c, t = basis.extend(g, logs[i], args[i][0], [int(j == i) for j in range(k)])
            if t is not None:
                coords = {j: basis.reduced(_vec_mat(x, t)) for j, x in coords.items()}
        coords[i] = c
    return basis, [coords[i] for i in range(k)]


def _require_units(elems):
    """DomainError naming the first of elems that is not a unit, if any."""
    for g in elems:
        if not g.is_unit():
            raise DomainError(f"generator {quoted(g)} is not a unit")


def _in_passes(elems, precision: int, run):
    """run(elems, columns, digits, e, log_moduli) on the double columns of
    elems (_float_columns, scale 10^FLOAT_DIGITS, _double_log_moduli) and,
    when they do not exist or run raises PrecisionError, once more on the
    working-precision columns (_embedding_columns, scale
    10^(precision - guard), _mp_log_moduli) inside their mp.workdps, where
    a PrecisionError is raised."""
    e = embeddings(elems[0].field, precision)
    columns = _float_columns(elems, e)
    if columns is not None:
        try:
            return run(elems, columns, FLOAT_DIGITS, e, _double_log_moduli)
        except PrecisionError:
            pass
    with mp.workdps(e.working_dps):
        return run(elems, _embedding_columns(elems, e), precision - GUARD_DIGITS, e,
                   _mp_log_moduli)


def relation_lattice(elems, precision: int = DEFAULT_DIGITS) -> MultiplicativePresentation:
    """Find the multiplicative relation lattice of a list of units.

    _place_all proves a basis of the group they generate and the
    coordinates of each generator over it; the relation lattice is the HNF
    of the integer kernel of those coordinates, a Z/w column included (see
    the module docstring). A failed proof raises PrecisionError (retry with
    more digits), so a returned presentation misses no relation and
    invents none.
    """
    elems = list(elems)
    if not elems:
        return MultiplicativePresentation((), (), 1, precision, (), (), ())
    field = elems[0].field
    if any(g.field != field for g in elems):
        raise DomainError("generators live in different fields")
    if any(g.is_zero() for g in elems):
        _require_units(elems)
    basis, coords = _in_passes(elems, precision, _place_all)
    stacked = [list(c) for c in coords] + [[basis.w] + [0] * len(basis.logs)]
    rows = hnf([row[:len(elems)] for row in left_kernel(stacked)])
    return MultiplicativePresentation(
        tuple(elems), tuple(map(tuple, rows)), basis.w, precision, tuple(basis.units),
        tuple(coords), tuple(map(tuple, basis.sections)))


# ---------------------------------------------------------------------------
# relation search

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
    cmath.phase. None when a coefficient overflows a double, a value is not
    a finite nonzero double, or Horner's rule may have lost more than
    FLOAT_ERROR of a value v: its a priori error 8(n+1)u |c|_1 max(1, |z|)^(n-1),
    u = 2^-53 (_prove_rank's bound without the root radius), exceeds
    FLOAT_ERROR |v|. A search on such columns would take their noise for
    relations, with exponents too large to disprove."""
    n = e.degree
    points = [e.float_roots[idx] for idx in e.class_representatives]
    scales = [8 * (n + 1) * 2 ** -53 * max(1, abs(z)) ** (n - 1) / FLOAT_ERROR for z in points]
    try:
        rows = []
        for coeffs in ([c / g.den for c in g.num] for g in elems):
            norm1 = sum(map(abs, coeffs))
            rows.append([_horner(coeffs, z) for z in points])
            if any(norm1 * s > abs(v) for v, s in zip(rows[-1], scales)):
                return None
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


def _relation_candidates(logs, args, digits: int) -> list[list[int]]:
    """The exponent vectors of candidate relations: the LLL-reduced rows of
    _search_lattice whose r1 + r2 residuals are at most 10^(digits // 2).
    _verified_basis proves each candidate row as it stands."""
    k = len(logs)
    threshold = 10 ** (digits // 2)
    return [v[:k] for v in lll(_search_lattice(logs, args, digits))
            if any(v[:k]) and max(abs(r) for r in v[k:]) <= threshold]


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


def _complete_basis(elems, columns, digits: int, e: EmbeddingSet, log_moduli):
    """(HNF basis, torsion order) of the whole relation lattice of the units
    elems, from one LLL search on their columns scaled by 10^digits: the
    rows proved by _verified_basis, the torsion order by _certify_torsion
    and completeness by _prove_rank with the pass's log_moduli;
    PrecisionError when one fails."""
    logs, args = columns
    basis = _verified_basis(elems, _relation_candidates(logs, args, digits))
    torsion = _certify_torsion(elems, basis)
    _prove_rank(elems, basis, logs, e, log_moduli)
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
    (_log_modulus_error), is shown nonsingular by _certainly_nonsingular
    (_certified_minor); a failure in doubles sends _in_passes on to the
    working-precision pass.

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
    if not _certified_minor(elems, logs, r, e, log_moduli):
        raise PrecisionError(
            "log-modulus minor does not exceed its error bound: the "
            "relation lattice may be incomplete, retry at higher precision")


def _certified_minor(elems, logs, r: int, e: EmbeddingSet, log_moduli) -> bool:
    """Whether the r x r minor of the log|sigma(g)| that _pivots picks on a
    float copy of logs is certainly nonsingular: its r elements are
    evaluated anew by log_moduli at its r classes, each log within eta of
    the true one (_prove_rank's error bound), and _certainly_nonsingular
    decides; PrecisionError when a pivot is zero or a log cannot be bounded."""
    rows, cols = _pivots(logs, r)
    reps = [e.class_representatives[j] for j in cols]
    minor = [log_moduli(elems[i], reps, e) for i in rows]
    return _certainly_nonsingular([[value for value, _ in row] for row in minor],
                                  max(eta for row in minor for _, eta in row))


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
def _smith_form(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple, tuple]:
    """(invariants, V, V^-1) of snf(rows), formed once per relation basis:
    the torsion proof reads the exponents of its generator off V^-1, and an
    extension step its new basis. V is unimodular, so V^-1 is integral."""
    invariants, v = snf(rows)
    inverse, _ = _integer_inverse(v)
    return tuple(invariants), tuple(map(tuple, v)), tuple(map(tuple, inverse))


def _certify_torsion(elems, basis) -> int:
    """Order w of the torsion of Z^k modulo the relation basis, read off its
    Smith invariants and proved on the generator t = P / N of the torsion
    factor (_sign_split, formed once), whose exponents are the row of V^-1
    at that factor: t^w == 1 and t^(w/q) != 1 for each prime q | w
    (_is_root_of_one)."""
    if not basis:
        return 1
    invariants, _, inverse = _smith_form(tuple(map(tuple, basis)))
    nontrivial = [i for i, d in enumerate(invariants) if d > 1]
    if not nontrivial:
        return 1
    if len(nontrivial) > 1:
        raise PrecisionError(
            "presented torsion is not cyclic; the relation lattice is "
            "incomplete, retry at higher precision")
    w = invariants[nontrivial[0]]
    pos, neg = _sign_split(elems, inverse[nontrivial[0]])
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
    d, v = snf(relation_rows) if relation_rows else ([0] * k, identity(k))
    return ExteriorSquare(k, tuple(math.gcd(d[i], d[j]) for i, j in _pairs(k)),
                          tuple(tuple(row) for row in v))


def exterior_square(p: MultiplicativePresentation) -> ExteriorSquare:
    """Exterior square of the group p presents, on its basis coordinates:
    that of Z^(1 + r') modulo (w, 0, ..., 0), one lattice per (r', w)."""
    n = len(p.units)
    return exterior_square_of_lattice(n, ((p.torsion_order,) + (0,) * (n - 1),) if n else ())


# ---------------------------------------------------------------------------
# coordinates and the wedge map

def _basis_coordinates(elem: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """(a, e_1, ..., e_r') of elem over p.units: a generator's row of
    p.coordinates, 0 for 1, and otherwise as relation_lattice places a
    generator, in the passes of _in_passes on p's basis. DomainError for an
    element of another field or a non-unit; PresentationIncompleteError when
    elem would enlarge the group, a proved statement."""
    if p.rank and elem.field != p.generators[0].field:
        raise DomainError("element and generators live in different fields")
    for g, c in zip(p.generators, p.coordinates):
        if g == elem:
            return c
    if elem.is_one():
        return (0,) * len(p.units)
    if p.rank == 0:
        raise PresentationIncompleteError("empty presentation expresses only 1")

    def place(elems, columns, digits, e, log_moduli):
        logs, args = columns
        basis = _UnitBasis(p.units, p.torsion_order, logs[1:-1], [a[0] for a in args[:-1]],
                           p.sections, digits, e, log_moduli)
        c = basis.coordinates(elem, logs[-1], args[-1][0])
        if c is None:
            if not elem.is_unit():
                raise DomainError("only units have coordinates in a unit presentation")
            c, t = basis.extend(elem, logs[-1], args[-1][0], [0] * p.rank)
            if t is not None:
                raise PresentationIncompleteError(
                    f"element {quoted(elem)} is not expressible over the supplied generators")
        return c

    return _in_passes(list(p.units) + [elem], p.precision, place)


def coordinates_of(elem: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """Exponent coordinates of elem over the presentation generators: e_i
    for generator i, and otherwise its basis coordinates
    (_basis_coordinates) times p.sections, so "not expressible" is a proved
    statement. They are well defined only up to the relation lattice, which
    is enough for wedge classes. DomainError for an element of another field
    than the generators'.
    """
    if elem in p.generators:
        i = p.generators.index(elem)
        return tuple(int(j == i) for j in range(p.rank))
    return tuple(_vec_mat(_basis_coordinates(elem, p), p.sections))


def steinberg_image(lam: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """Class of lambda ^ (1 - lambda), the tuple ExteriorSquare.wedge gives
    on the basis coordinates of lambda and 1 - lambda. _basis_coordinates
    proves a non-generator a unit, by its exact identity or by is_unit
    (relation_lattice proved the generators units), so a lambda outside
    R-circ raises DomainError."""
    return exterior_square(p).wedge(_basis_coordinates(lam, p),
                                    _basis_coordinates(lam.field.one() - lam, p))


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
