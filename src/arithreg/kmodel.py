"""Graded real model of the K-theory of a ring of integers.

The model is the square-zero algebra R + M where M sits in degrees 1-2p,
p >= 1, with one generator per real embedding when p is odd and one per
conjugate pair of complex embeddings for every p. The coefficient functional
in degree -1 sums a generator's coefficient once per embedding (so pair
coefficients count twice); its kernel is where unit log-vectors land, and
dimension counts reproduce the classical ranks r1 + r2 - 1 in degree -1,
r2 in degrees 1-2p for even p, and r1 + r2 for odd p >= 3.

Coordinates are exact rationals. Regulator values (dyadic floats) convert
exactly, so the algebra assertions (square-zero products, graded
commutativity, idempotency of the canonical splitting) hold with equality,
not within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError
from .nf import EmbeddingSet, FieldElement
from .regulator import k3_regulator, unit_regulator
from .relations import BlochElement


def mpf_to_fraction(x) -> Fraction:
    """Exact dyadic value of an mpf (mpf values are binary rationals).

    Reads the mantissa and exponent directly; reconstructing through the
    mpf() constructor would silently re-round to the ambient precision.
    """
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    if not isinstance(x, mpf):
        raise DomainError(f"cannot convert {type(x).__name__} exactly")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise DomainError("cannot convert a non-finite value")
    out = Fraction(man) * (Fraction(2) ** exp)
    return -out if sign else out


@dataclass(frozen=True)
class GradedKAlgebra:
    embedding_set: EmbeddingSet
    max_p: int

    def __post_init__(self):
        if self.max_p < 1:
            raise DomainError("max_p must be at least 1")

    @property
    def signature(self) -> tuple[int, int]:
        return self.embedding_set.signature

    @property
    def field_degree(self) -> int:
        return self.embedding_set.degree

    def generators(self, degree: int) -> tuple[tuple[str, int], ...]:
        """Generator descriptors in a given degree; lazily valid for any
        degree 1-2p (even negative degrees have none)."""
        if degree >= 0 or degree % 2 == 0:
            return ()
        p = (1 - degree) // 2
        e = self.embedding_set
        gens = []
        if p % 2 == 1:
            gens.extend(("real", i) for i in e.real_indices)
        gens.extend(("pair", i) for i in e.pair_representatives)
        return tuple(gens)

    def generator_labels(self, degree: int) -> list[str]:
        labels = []
        for kind, idx in self.generators(degree):
            if kind == "real":
                labels.append(f"x(s{idx})_{degree}")
            else:
                labels.append(f"x(s{idx}s{self.embedding_set.conjugate_index(idx)})_{degree}")
        return labels

    def dim_m_prime(self, degree: int) -> int:
        return len(self.generators(degree))

    def zero(self, degree: int) -> "GradedElement":
        if degree == 0:
            return GradedElement(self, 0, (Fraction(0),))
        return GradedElement(self, degree,
                             tuple(Fraction(0) for _ in self.generators(degree)))

    def scalar(self, value) -> "GradedElement":
        return GradedElement(self, 0, (mpf_to_fraction(value),))

    def element(self, degree: int, coords) -> "GradedElement":
        return GradedElement(self, degree, tuple(mpf_to_fraction(c) for c in coords))


@dataclass(frozen=True)
class GradedElement:
    model: GradedKAlgebra
    degree: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree > 0:
            raise DomainError("the model is concentrated in degrees <= 0")
        expected = 1 if self.degree == 0 else len(self.model.generators(self.degree))
        if len(self.coords) != expected:
            raise DomainError(
                f"degree {self.degree} needs {expected} coordinates, got {len(self.coords)}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if self.model != other.model or self.degree != other.degree:
            raise DomainError("can only add elements of equal degree in one model")
        return GradedElement(self.model, self.degree,
                             tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + GradedElement(other.model, other.degree,
                                    tuple(-c for c in other.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def values(self) -> list[mpf]:
        with mp.workdps(self.model.embedding_set.working_dps):
            return [mpf(c.numerator) / mpf(c.denominator) for c in self.coords]


def build_model(e: EmbeddingSet, max_p: int) -> GradedKAlgebra:
    """Assemble the graded model of the field of e at the precision of e;
    degrees beyond max_p stay available lazily."""
    return GradedKAlgebra(e, max_p)


def p_map(b: GradedElement, model: GradedKAlgebra) -> Fraction:
    """Sum of the degree -1 coefficients, counted once per embedding."""
    if b.degree != -1:
        raise DomainError("the coefficient functional is defined in degree -1")
    total = Fraction(0)
    for coeff, (kind, _) in zip(b.coords, model.generators(-1)):
        # a pair generator carries its coefficient at both members of the
        # pair, so the per-embedding coefficient sum counts it twice
        total += coeff * (1 if kind == "real" else 2)
    return total


def project_M(b: GradedElement, model: GradedKAlgebra) -> GradedElement:
    """Canonical splitting onto the kernel of the coefficient functional:
    subtract p(b)/[K:Q] times the sum of the degree -1 generators. Exactly
    idempotent, and p_map of the output is exactly zero."""
    if b.degree != -1:
        raise DomainError("the splitting is defined in degree -1")
    share = p_map(b, model) / model.field_degree
    return GradedElement(model, -1, tuple(c - share for c in b.coords))


def rank_in_degree(model: GradedKAlgebra, degree: int) -> int:
    """Real rank of the model in a degree: the dimension of ker(p) there."""
    if degree == 0:
        return 1
    if degree > 0 or degree % 2 == 0:
        raise DomainError(f"degree {degree} is not of the form 1-2p")
    dim = model.dim_m_prime(degree)
    return dim - 1 if degree == -1 else dim


def multiply(a: GradedElement, b: GradedElement,
             model: GradedKAlgebra) -> GradedElement:
    """Square-zero product: scalars act, everything else multiplies to zero."""
    if a.model != model or b.model != model:
        raise DomainError("elements belong to a different model")
    if a.degree == 0:
        scalar = a.coords[0]
        return GradedElement(model, b.degree, tuple(scalar * c for c in b.coords))
    if b.degree == 0:
        scalar = b.coords[0]
        return GradedElement(model, a.degree, tuple(scalar * c for c in a.coords))
    return model.zero(a.degree + b.degree)


def embed_unit(lam: FieldElement, model: GradedKAlgebra) -> GradedElement:
    """Degree -1 element with the unit's log-modulus as coefficients (shared
    coefficient per conjugate pair); lands in ker(p_map) up to the numerical
    accuracy of the logs."""
    vec = unit_regulator(lam, model.embedding_set)
    coords = []
    for kind, idx in model.generators(-1):
        coords.append(mpf_to_fraction(vec.values[idx]))
    return GradedElement(model, -1, tuple(coords))


def embed_k3(x: BlochElement, model: GradedKAlgebra) -> GradedElement:
    """Degree -3 element carrying the dilogarithm values of a formal sum;
    only conjugate pairs contribute generators there, matching the exact
    vanishing of the dilogarithm on the real line."""
    (vec,) = k3_regulator([x], model.embedding_set)
    coords = []
    for kind, idx in model.generators(-3):
        coords.append(mpf_to_fraction(vec.values[idx]))
    return GradedElement(model, -3, tuple(coords))


def dimension_table(model: GradedKAlgebra) -> dict:
    """Degrees, generator labels and ranks for display and JSON dumps."""
    rows = []
    for p in range(1, model.max_p + 1):
        d = 1 - 2 * p
        rows.append({
            "degree": d,
            "dim_ambient": model.dim_m_prime(d),
            "rank": rank_in_degree(model, d),
            "generators": model.generator_labels(d),
        })
    return {
        "signature": list(model.signature),
        "degree_zero_rank": 1,
        "rows": rows,
    }
