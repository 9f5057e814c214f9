"""Multiplicative relation lattices among field units, exterior squares of
finitely generated abelian groups, the wedge map lambda -> lambda ^ (1-lambda),
and the kernel of formal sums under that map.

Relations are discovered numerically (LLL on a scaled logarithmic embedding,
one log-modulus column per conjugacy class of embeddings plus argument
columns with auxiliary rows absorbing whole turns). The candidates are then
reduced to their HNF basis, the rows that are stored, and each basis row is
proved once by exact field multiplication, without inverting: the product
over positive exponents must equal the product over negative ones. The
candidates are integer combinations of the basis rows, so they are proved
with it. The torsion order, read off the Smith invariants of the basis, is
proved the same way on powers of the two sign-split products of a torsion
generator. Floating error can
therefore make the discovered lattice incomplete but never wrong. Exterior squares keep their torsion: the
quotient presentation is reduced to Smith normal form and wedge
coordinates are canonicalized componentwise against its invariants. A raw
wedge vector is taken to Smith coordinates once, by ExteriorSquare.reduce;
wedge classes and their integer combinations are already in Smith
coordinates and are reduced modulo the invariants only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

from mpmath import mp

from .errors import DomainError, PrecisionError, PresentationIncompleteError
from .intmat import _integer_inverse, hnf, identity, in_lattice, left_kernel, lll, snf
from .nf import EmbeddingSet, FieldElement, _prime_divisors, embeddings, evaluate
from .precision import DEFAULT_DIGITS, GUARD_DIGITS

DEFAULT_EXPONENT_BOUND = 64


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


@dataclass(frozen=True)
class WedgeClass:
    """Canonically reduced element of the exterior square of the presented
    group; coords live in the Smith coordinates of the quotient."""

    presentation: MultiplicativePresentation
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class BlochElement:
    """Integer combination sum n_i [lambda_i] with support in the elements
    whose complements are also units; valid ones satisfy
    sum n_i (lambda_i ^ (1 - lambda_i)) = 0 including torsion."""

    support: tuple[FieldElement, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.multiplicities):
            raise DomainError("support and multiplicities differ in length")

    def to_record(self) -> dict:
        return {
            "support": [el.to_record() for el in self.support],
            "multiplicities": [int(n) for n in self.multiplicities],
        }


# ---------------------------------------------------------------------------
# relation discovery

def _embedding_columns(elems, e: EmbeddingSet):
    """Rows of (log-modulus columns per conjugacy class, then argument/2pi
    columns per conjugacy class) for each element."""
    reps = e.class_representatives
    logs, args = [], []
    for g in elems:
        lrow, arow = [], []
        vals = evaluate(g, e)
        for idx in reps:
            val = vals[idx]
            if abs(val) == 0:
                raise DomainError("zero element has no logarithmic embedding")
            lrow.append(mp.log(abs(val)))
            arow.append(mp.arg(val) / (2 * mp.pi))
        logs.append(lrow)
        args.append(arow)
    return logs, args


def _relation_candidates(elems, precision: int):
    """Exponent vectors of candidate relations among elems: the LLL-reduced
    vectors of the scaled log-embedding lattice whose residuals are below
    10^((precision - guard)/2) and whose exponents are within
    DEFAULT_EXPONENT_BOUND. They are unproved until _verified_basis."""
    field = elems[0].field
    e = embeddings(field, precision)
    with mp.workdps(e.working_dps):
        logs, args = _embedding_columns(elems, e)
        scale = 10 ** (precision - GUARD_DIGITS)
        k = len(elems)
        ncls = len(e.class_representatives)
        rows = []
        for i in range(k):
            rows.append([1 if j == i else 0 for j in range(k)]
                        + [int(mp.nint(scale * v)) for v in logs[i]]
                        + [int(mp.nint(scale * v)) for v in args[i]])
        for j in range(ncls):  # absorb whole turns in the argument columns
            rows.append([0] * (k + ncls + j) + [scale] + [0] * (ncls - 1 - j))
    reduced = lll(rows)
    threshold = 10 ** ((precision - GUARD_DIGITS) // 2)
    out = []
    for v in reduced:
        exps, resid = v[:k], v[k:]
        if (any(exps) and max(abs(r) for r in resid) <= threshold
                and max(abs(x) for x in exps) <= DEFAULT_EXPONENT_BOUND):
            out.append(exps)
    return out


def _verified_basis(elems, candidates) -> list[list[int]]:
    """HNF basis of the lattice spanned by the candidate exponent rows, each
    row proved a relation among elems by exact multiplication: the product
    of g_i^e_i over e_i > 0 must equal that of g_i^-e_i over e_i < 0. A row
    that fails raises PrecisionError (retry with more digits)."""
    basis = hnf(candidates)
    for row in basis:
        pos, neg = _sign_split(elems, row)
        if pos != neg:
            raise PrecisionError(
                "numerically discovered relation failed exact verification; "
                "retry at higher precision")
    return basis


def relation_lattice(elems, precision: int = DEFAULT_DIGITS) -> MultiplicativePresentation:
    """Find the multiplicative relation lattice of a list of units.

    The HNF basis of the numerically discovered relations is proved exactly
    by _verified_basis; a row that fails raises PrecisionError (retry with
    more digits). The torsion order of the presented group is read off the
    Smith form and certified by exact powering of a torsion generator.
    """
    elems = list(elems)
    if not elems:
        return MultiplicativePresentation((), (), 1, precision)
    field = elems[0].field
    for g in elems:
        if g.field != field:
            raise DomainError("generators live in different fields")
        if not g.is_unit():
            raise DomainError(f"generator {g!r} is not a unit")

    basis = _verified_basis(elems, _relation_candidates(elems, precision))
    return MultiplicativePresentation(
        tuple(elems), tuple(tuple(r) for r in basis),
        _certify_torsion(elems, basis), precision)


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


def _certify_torsion(elems, basis) -> int:
    """Order w of the torsion of Z^k modulo the relation basis, read off its
    Smith invariants and proved on the generator t = P / N of the torsion
    factor (_sign_split, formed once): t^w == 1 and t^(w/q) != 1 for each
    prime q | w (_is_root_of_one)."""
    if not basis:
        return 1
    invariants, v = snf(basis)
    nontrivial = [d for d in invariants if d > 1]
    if not nontrivial:
        return 1
    if len(nontrivial) > 1:
        raise PrecisionError(
            "presented torsion is not cyclic; the relation lattice is "
            "incomplete, retry at higher precision")
    w = nontrivial[0]
    # v is unimodular, so its inverse has denominator 1
    pos, neg = _sign_split(elems, _integer_inverse(v)[0][invariants.index(w)])
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
    """Smith-normal-form presentation of the exterior square of a group
    presented as Z^k modulo a relation lattice: basis e_i ^ e_j (i < j)
    modulo rows r ^ e_j for every relation r.

    invariants[c] is the diagonal entry owning Smith coordinate c (0 marks a
    free coordinate). reduce() takes a raw wedge-coordinate vector to Smith
    coordinates once; reduce_smith() reduces a vector already in Smith
    coordinates, such as a sum of wedge classes, modulo the invariants only.
    """

    rank: int
    invariants: tuple[int, ...]
    v_matrix: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.invariants)

    def reduce(self, raw) -> tuple[int, ...]:
        if len(raw) != self.dim:
            raise DomainError("wedge coordinate vector has wrong length")
        return self.reduce_smith([sum(raw[c] * self.v_matrix[c][j] for c in range(self.dim))
                                  for j in range(self.dim)])

    def reduce_smith(self, y) -> tuple[int, ...]:
        return tuple(c % d if d > 0 else c for c, d in zip(y, self.invariants))


def _pair_basis(k: int):
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    index = {p: c for c, p in enumerate(pairs)}
    return pairs, index


@lru_cache(maxsize=256)
def exterior_square_of_lattice(k: int,
                               relation_rows: tuple[tuple[int, ...], ...]) -> ExteriorSquare:
    """Exterior square over the integers of Z^k modulo a relation lattice,
    torsion included, as Smith normal form data."""
    pairs, index = _pair_basis(k)
    dim = len(pairs)
    relators = []
    for r in relation_rows:
        for j in range(k):
            row = [0] * dim
            nonzero = False
            for i in range(k):
                if i == j or r[i] == 0:
                    continue
                if i < j:
                    row[index[(i, j)]] += r[i]
                else:
                    row[index[(j, i)]] -= r[i]
                nonzero = True
            if nonzero:
                relators.append(row)
    if not relators:
        return ExteriorSquare(k, tuple([0] * dim),
                              tuple(tuple(row) for row in identity(dim)))
    invariants, v = snf(relators)
    return ExteriorSquare(k, tuple(invariants), tuple(tuple(row) for row in v))


def exterior_square(p: MultiplicativePresentation) -> ExteriorSquare:
    return exterior_square_of_lattice(p.rank, p.relation_basis)


def wedge_of_vectors(p: MultiplicativePresentation, u, v) -> WedgeClass:
    """Class of (sum u_i g_i) ^ (sum v_j g_j) written additively."""
    k = p.rank
    pairs, index = _pair_basis(k)
    raw = [0] * len(pairs)
    for (i, j), c in index.items():
        raw[c] = u[i] * v[j] - u[j] * v[i]
    sq = exterior_square(p)
    return WedgeClass(p, sq.reduce(raw))


# ---------------------------------------------------------------------------
# coordinates and the wedge map

def coordinates_of(elem: FieldElement, p: MultiplicativePresentation) -> tuple[int, ...]:
    """Exponent coordinates of elem over the presentation generators.

    Coordinates are read off the first row of the proved relation basis of
    elem and the generators (_verified_basis), exponents capped by
    DEFAULT_EXPONENT_BOUND; they are well defined only up to the relation
    lattice, which is enough for wedge classes.
    """
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
    extended = [elem] + list(p.generators)
    basis = _verified_basis(extended, _relation_candidates(extended, p.precision))
    if basis and basis[0][0] == 1:
        coords = tuple(-x for x in basis[0][1:])
        if max(abs(c) for c in coords) <= DEFAULT_EXPONENT_BOUND:
            return coords
        raise PresentationIncompleteError(
            "coordinates exceed the exponent-height bound")
    raise PresentationIncompleteError(
        f"element {elem!r} is not expressible over the supplied generators")


def steinberg_image(lam: FieldElement, p: MultiplicativePresentation) -> WedgeClass:
    """Class of lambda ^ (1 - lambda) in the exterior square. coordinates_of
    tests every non-generator for unit status (relation_lattice proved the
    generators units), so a lambda outside R-circ raises DomainError."""
    return wedge_of_vectors(p, coordinates_of(lam, p),
                            coordinates_of(lam.field.one() - lam, p))


def bloch_kernel(candidates, p: MultiplicativePresentation) -> list[BlochElement]:
    """Basis of the lattice of integer combinations sum n_i [lambda_i] whose
    wedge images cancel exactly (torsion included)."""
    return _bloch_kernels(candidates, p)[0]


def torsion_only_kernel(candidates, p: MultiplicativePresentation) -> list[BlochElement]:
    """Combinations whose wedge images vanish modulo torsion but not exactly;
    these are flagged rather than treated as kernel members."""
    return _bloch_kernels(candidates, p)[1]


def _bloch_kernels(candidates, p: MultiplicativePresentation
                   ) -> tuple[list[BlochElement], list[BlochElement]]:
    """(bloch_kernel, torsion_only_kernel) of the candidates, both from one
    list of Steinberg images."""
    candidates = list(candidates)
    if not candidates:
        return [], []
    images = [steinberg_image(lam, p) for lam in candidates]
    sq = exterior_square(p)
    free_cols = [j for j, d in enumerate(sq.invariants) if d == 0]
    free_kernel = left_kernel([[img.coords[j] for j in free_cols] for img in images])

    strict_basis = _strict_kernel(images, sq)
    support = tuple(candidates)
    return ([BlochElement(support, tuple(row)) for row in strict_basis],
            [BlochElement(support, tuple(row))
             for row in free_kernel if not in_lattice(row, strict_basis)])


def _strict_kernel(images, sq: ExteriorSquare) -> list[list[int]]:
    """HNF basis of the integer combinations of wedge classes that vanish
    exactly, each basis row re-verified against the torsion invariants."""
    m = len(images)
    stacked = [list(img.coords) for img in images]
    for j, d in enumerate(sq.invariants):
        if d > 0:
            stacked.append([d if c == j else 0 for c in range(sq.dim)])
    basis = hnf([row[:m] for row in left_kernel(stacked)])
    for row in basis:
        if not _wedge_sum_vanishes(row, images, sq):
            raise PrecisionError("kernel basis failed exact wedge verification")
    return basis


def _wedge_sum_vanishes(multiplicities, images, sq: ExteriorSquare) -> bool:
    """Whether sum n_i * image_i, in Smith coordinates, is 0 modulo the
    invariants."""
    total = [sum(n * img.coords[c] for n, img in zip(multiplicities, images))
             for c in range(sq.dim)]
    return not any(sq.reduce_smith(total))


def verify_bloch_element(x: BlochElement, p: MultiplicativePresentation) -> bool:
    """Exact check of the defining kernel condition for a formal sum."""
    return _wedge_sum_vanishes(
        x.multiplicities, [steinberg_image(lam, p) for lam in x.support],
        exterior_square(p))
